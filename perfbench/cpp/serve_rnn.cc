// serve_rnn: Table 1's dynamic_rnn (input 64, hidden 256) compiled to an
// .agc with core::SaveArtifact and served by an in-process ServerCore
// (2 workers, max_batch 8) loaded with ServerCore::LoadArtifact. One
// generator thread drives it as a closed loop in two phases:
//   light      4 requests outstanding: batches fill only partly, so
//              linger time and wake-ups show;
//   saturated  32 requests outstanding: batches are full.
// Requests are a seeded 50/50 mix of sequence lengths 16 and 32, so the
// batcher must group them by shape. Every reply must be bit-identical to
// a direct StagedFunction::Run of that request staged from source.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifact_io.h"
#include "layers.h"
#include "serve/server.h"
#include "tensor/allocator.h"
#include "workloads.h"
#include "workloads/rnn.h"

namespace perfbench {
namespace {

using ag::Tensor;
using ag::core::AutoGraph;
using ag::core::StageArg;
using ag::core::StagedFunction;
using ag::core::Value;
using ag::exec::RuntimeValue;

constexpr int kLightDepth = 4;
constexpr int kSaturatedDepth = 32;
constexpr double kPhaseMs = 150;
// Large enough that the seeded order of short and long requests, which
// shapes the batches, averages out.
constexpr int kPoolSize = 256;
constexpr int kEagerPerRound = 10;
constexpr double kAlpha = 1.0;  // drift sensitivity, see kCalibReferenceMs

struct RnnRequest {
  std::vector<Tensor> feeds;     // input_data, initial_state, sequence_len
  std::vector<Tensor> expected;  // outputs, state (direct staged Run)
};

ag::serve::ServerOptions ServingOptions() {
  ag::serve::ServerOptions options;
  options.workers = 2;
  options.max_batch = 8;
  return options;
}

std::vector<StageArg> RnnStageArgs() {
  return {StageArg::Placeholder("input_data"),
          StageArg::Placeholder("initial_state"),
          StageArg::Placeholder("sequence_len", ag::DType::kInt32)};
}

std::vector<RuntimeValue> Feeds(const std::vector<Tensor>& in) {
  return {in.begin(), in.end()};
}

bool ReplyMatches(const ag::serve::Reply& reply, const RnnRequest& request) {
  if (!reply.ok || reply.outputs.size() != request.expected.size()) {
    return false;
  }
  for (size_t i = 0; i < reply.outputs.size(); ++i) {
    if (!BitEqual(reply.outputs[i], request.expected[i])) return false;
  }
  return true;
}

// Stacks the feeds of `n` requests of one sequence length along dim 0,
// as the server's batcher does.
std::vector<RuntimeValue> StackedFeeds(const std::vector<RnnRequest>& pool,
                                       int64_t seq_len, int n) {
  std::vector<std::vector<float>> data(3);
  std::vector<std::vector<int64_t>> dims(3);
  int found = 0;
  for (const RnnRequest& r : pool) {
    if (found == n) break;
    if (r.feeds[0].shape().dims()[1] != seq_len) continue;
    ++found;
    for (size_t f = 0; f < 3; ++f) {
      const Tensor& t = r.feeds[f];
      data[f].insert(data[f].end(), t.data(), t.data() + t.num_elements());
      dims[f] = t.shape().dims();
    }
  }
  std::vector<RuntimeValue> out;
  for (size_t f = 0; f < 3; ++f) {
    dims[f][0] = found;
    out.emplace_back(Tensor::FromVector(std::move(data[f]),
                                        ag::Shape(dims[f]),
                                        f == 2 ? ag::DType::kInt32
                                               : ag::DType::kFloat32));
  }
  return out;
}

struct PhaseResult {
  std::vector<double> latency_ms;  // raw
  int64_t completed = 0;
  double elapsed_ms = 0;
};

// Keeps `depth` requests outstanding for kPhaseMs, then drains. Replies
// are checked against the direct-Run reference as they arrive.
PhaseResult ClosedLoop(ag::serve::ServerCore& server,
                       const std::vector<RnnRequest>& pool, size_t& next,
                       int depth, Report& report, Spans& spans,
                       int64_t& call_id) {
  struct Done {
    Clock::time_point submit;
    Clock::time_point reply;
    bool ok = false;
    std::string error;
    int64_t call = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  std::vector<Done> done;
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < kPhaseMs) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < depth; });
      ++outstanding;
    }
    const RnnRequest& r = pool[next++ % pool.size()];
    ag::serve::Request request;
    request.fn = "dynamic_rnn";
    request.feeds = r.feeds;
    const int64_t call = ++call_id;
    const Clock::time_point submit = Clock::now();
    server.Submit(std::move(request), [&, submit, call](ag::serve::Reply reply) {
      Done d;
      d.reply = Clock::now();
      d.submit = submit;
      d.call = call;
      d.ok = ReplyMatches(reply, r);
      if (!reply.ok) d.error = reply.error_message;
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(std::move(d));
      --outstanding;
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  PhaseResult result;
  result.elapsed_ms = MsSince(start);
  for (const Done& d : done) {
    if (!d.error.empty()) {
      report.Fail("reply: " + d.error);
      continue;
    }
    report.Check(d.ok);
    result.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(d.reply - d.submit)
            .count());
    spans.Add("ServerCore::Submit -> reply", "serve", d.submit, d.reply,
              d.call);
  }
  result.completed = static_cast<int64_t>(done.size());
  return result;
}

// One cold set-up as a serving process pays it: LoadArtifact, Start,
// first reply. Raw ms; the server is stopped outside the timing.
double ColdServeSetupMs(const std::string& path, const RnnRequest& first,
                        Report& report, Spans& spans) {
  SpanScope setup(spans, "setup", "bench");
  const Clock::time_point start = Clock::now();
  auto server = std::make_unique<ag::serve::ServerCore>(ServingOptions());
  {
    SpanScope s(spans, "ServerCore::LoadArtifact", "artifact");
    server->LoadArtifact(path);
  }
  server->Start();
  ag::serve::Request request;
  request.fn = "dynamic_rnn";
  request.feeds = first.feeds;
  ag::serve::Reply reply = [&] {
    SpanScope s(spans, "ServerCore::Call first", "serve");
    return server->Call(std::move(request));
  }();
  const double ms = MsSince(start);
  if (!ReplyMatches(reply, first)) {
    report.Fail("setup: first reply differs from the direct Run");
  }
  return ms;
}

}  // namespace

void RunServeRnn(Context& ctx) {
  Report& report = ctx.report;
  Spans& spans = ctx.spans;

  // The model is fixed; the seed draws the requests.
  ag::workloads::RnnConfig config;
  config.batch = 1;
  config.seq_len = 2;
  config.input_size = 64;
  config.hidden = 256;
  const ag::workloads::RnnInputs model = ag::workloads::MakeRnnInputs(config);

  // Reference path: the module staged from source, run directly.
  AutoGraph agc;
  ag::workloads::InstallRnn(agc, model);
  StagedFunction cell = agc.Stage(
      "rnn_cell", {StageArg::Placeholder("x"), StageArg::Placeholder("h")});
  StagedFunction reference = agc.Stage("dynamic_rnn", RnnStageArgs());
  const std::string path = ctx.OutPath(".agc");
  ag::core::SaveArtifact(path, {{"rnn_cell", &cell},
                                {"dynamic_rnn", &reference}});

  // An exact 5:3 mix of lengths 16 and 32 in seeded order. Not 50/50:
  // the median of an even two-mode mix falls in the gap between the
  // modes and jumps from run to run.
  ag::Rng rng(ctx.args.seed);
  std::vector<int64_t> lengths(kPoolSize, 32);
  std::fill(lengths.begin(), lengths.begin() + kPoolSize * 5 / 8, 16);
  for (size_t i = lengths.size() - 1; i > 0; --i) {
    std::swap(lengths[i], lengths[static_cast<size_t>(
                              rng.NextInt(static_cast<int64_t>(i) + 1))]);
  }
  std::vector<RnnRequest> pool;
  for (const int64_t len : lengths) {
    RnnRequest r;
    r.feeds = {rng.Normal(ag::Shape({1, len, config.input_size})),
               Tensor::Zeros(ag::Shape({1, config.hidden})),
               Tensor::FromVector({static_cast<float>(len)}, ag::Shape({1}),
                                  ag::DType::kInt32)};
    for (const RuntimeValue& v : reference.Run(Feeds(r.feeds))) {
      r.expected.push_back(ag::exec::AsTensor(v));
    }
    pool.push_back(std::move(r));
  }
  // Cold set-ups send one short request, so set-up time does not depend
  // on the seeded order.
  const RnnRequest& setup_request = *std::find_if(
      pool.begin(), pool.end(),
      [](const RnnRequest& r) { return r.feeds[0].shape().dims()[1] == 16; });
  const auto eager_matches = [&](const Value& out, const RnnRequest& r) {
    const auto& elts = out.AsTuple()->elts;
    return Close(elts[0].AsTensor(), r.expected[0], 1e-4f) &&
           Close(elts[1].AsTensor(), r.expected[1], 1e-4f);
  };
  const auto eager_args = [](const RnnRequest& r) {
    return std::vector<Value>{Value(r.feeds[0]), Value(r.feeds[1]),
                              Value(r.feeds[2])};
  };

  ag::serve::ServerCore server(ServingOptions());
  server.LoadArtifact(path);
  server.Start();
  (void)server.Call([&] {
    ag::serve::Request warm;
    warm.fn = "dynamic_rnn";
    warm.feeds = pool[0].feeds;
    return warm;
  }());

  size_t next = 0;
  size_t next_eager = 0;
  int64_t call_id = 0;

  if (!ctx.args.trace) {
    Samples setup_ms, light_ms, saturated_ms, saturated_ms_per_request,
        eager_ms;
    RunRounds(ctx.args.seconds, kAlpha, report, [&](double scale) {
      setup_ms.Add(ColdServeSetupMs(path, setup_request, report, spans), scale);
      PhaseResult light = ClosedLoop(server, pool, next, kLightDepth, report,
                                     spans, call_id);
      for (double ms : light.latency_ms) light_ms.Add(ms, scale);
      PhaseResult sat = ClosedLoop(server, pool, next, kSaturatedDepth,
                                   report, spans, call_id);
      for (double ms : sat.latency_ms) saturated_ms.Add(ms, scale);
      saturated_ms_per_request.Add(
          sat.elapsed_ms / static_cast<double>(std::max<int64_t>(
                               1, sat.completed)),
          scale);
      // The unconverted path: the interpreter runs the same requests.
      for (int k = 0; k < kEagerPerRound; ++k) {
        const RnnRequest& r = pool[next_eager++ % pool.size()];
        try {
          const Clock::time_point start = Clock::now();
          Value out = agc.CallEager("dynamic_rnn", eager_args(r));
          eager_ms.Add(MsSince(start), scale);
          report.Check(eager_matches(out, r));
        } catch (const std::exception& e) {
          report.Fail(e.what());
        }
      }
    });
    server.Stop();
    // The server runs with step_stats off; its cumulative metadata must
    // hold no step stats.
    if (!server.metadata().step_stats.nodes.empty()) {
      report.Fail("untraced serving recorded step stats");
    }
    ReportEndToEnd(
        ctx, setup_ms, light_ms, eager_ms,
        1000.0 / Median(saturated_ms_per_request.Reference()));
    NoteSamples(report, "saturated latency ms", saturated_ms);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "light p99=%.4f ms, saturated p99=%.4f ms, saturated rps "
                  "rounds=%zu",
                  Percentile(light_ms.Reference(), 0.99),
                  Percentile(saturated_ms.Reference(), 0.99),
                  saturated_ms_per_request.size());
    report.Note(buf);
    report.Note(server.stats().DebugString());
    std::filesystem::remove(path);
    return;
  }

  // ---- traced run ----
  std::vector<double> light_ms, saturated_ms;
  ag::obs::RunOptions traced;
  traced.step_stats = true;
  std::map<std::string, StagedFunction> loaded =
      ag::core::StageFromArtifact(path);
  StagedFunction& direct = loaded.at("dynamic_rnn");

  // Exact counts over one pass of the pool.
  const int64_t nodes0 = direct.session->stats().nodes_executed.load();
  const int64_t kernels0 = direct.session->stats().kernel_invocations.load();
  int64_t while_iters = 0;
  int64_t eager_ops = 0;
  for (const RnnRequest& r : pool) {
    ag::obs::RunMetadata meta;
    std::vector<RuntimeValue> out = direct.Run(Feeds(r.feeds), &traced, &meta);
    while_iters += meta.while_iterations;
    report.Check(BitEqual(ag::exec::AsTensor(out[0]), r.expected[0]) &&
                 BitEqual(ag::exec::AsTensor(out[1]), r.expected[1]));
    ag::obs::RunMetadata eager_meta;
    Value eager_out =
        agc.CallEager("dynamic_rnn", eager_args(r), &traced, &eager_meta);
    eager_ops += eager_meta.step_stats.TotalNodeExecutions();
    report.Check(eager_matches(eager_out, r));
  }
  const double pool_size = kPoolSize;
  const double nodes_per_call =
      static_cast<double>(direct.session->stats().nodes_executed.load() -
                          nodes0) / pool_size;
  const double kernels_per_call =
      static_cast<double>(direct.session->stats().kernel_invocations.load() -
                          kernels0) / pool_size;

  std::vector<double> load_ms, queue_wait_ms, b1_ms, b1_untraced_ms, b8_ms;
  int64_t load_allocs = 0;
  FrontendProbe frontend;
  TracedCalls calls;
  Roofline roofline;
  const std::vector<RuntimeValue> b1 = StackedFeeds(pool, 32, 1);
  const std::vector<RuntimeValue> b8 = StackedFeeds(pool, 32, 8);
  RunRounds(ctx.args.seconds, kAlpha, report, [&](double scale) {
    if (roofline.gflops == 0) roofline = MeasureRoofline(scale);
    // Front end, as the reference path pays it.
    frontend.Sample(
        spans, ag::workloads::DynamicRnnSource(),
        [&](AutoGraph& fresh) {
          ag::workloads::InstallRnn(fresh, model);
          return fresh.Stage("dynamic_rnn", RnnStageArgs());
        },
        b1, scale);
    {
      SpanScope s(spans, "core::StageFromArtifact", "artifact");
      const int64_t allocs0 = ag::tensor::ThreadAllocCount();
      const Clock::time_point start = Clock::now();
      std::map<std::string, StagedFunction> fns =
          ag::core::StageFromArtifact(path);
      load_ms.push_back(MsSince(start) * scale);
      load_allocs = ag::tensor::ThreadAllocCount() - allocs0;
    }
    (void)ColdServeSetupMs(path, setup_request, report, spans);

    const ag::obs::RunMetadata meta0 = server.metadata();
    const int64_t served0 = server.stats().succeeded;
    {
      SpanScope s(spans, "light phase", "bench");
      PhaseResult light = ClosedLoop(server, pool, next, kLightDepth, report,
                                     spans, call_id);
      for (double ms : light.latency_ms) light_ms.push_back(ms * scale);
    }
    {
      SpanScope s(spans, "saturated phase", "bench");
      PhaseResult sat = ClosedLoop(server, pool, next, kSaturatedDepth,
                                   report, spans, call_id);
      for (double ms : sat.latency_ms) saturated_ms.push_back(ms * scale);
    }
    const int64_t served = server.stats().succeeded - served0;
    if (served > 0) {
      queue_wait_ms.push_back(
          static_cast<double>(server.metadata().queue_wait_ns -
                              meta0.queue_wait_ns) /
          1e6 / static_cast<double>(served) * scale);
    }
    // ServerCore cannot trace yet: the served function's execution at
    // stacked batch 1 and 8 is measured by direct traced Runs.
    for (int k = 0; k < 4; ++k) {
      SpanScope call(spans, "direct call", "bench", ++call_id);
      {
        SpanScope s(spans, "StagedFunction::Run b1", "exec");
        const Clock::time_point start = Clock::now();
        (void)direct.Run(b1);
        b1_untraced_ms.push_back(MsSince(start) * scale);
      }
      {
        SpanScope s(spans, "StagedFunction::Run b1 traced", "exec");
        ag::obs::RunMetadata meta;
        const Clock::time_point start = Clock::now();
        (void)direct.Run(b1, &traced, &meta);
        b1_ms.push_back(MsSince(start) * scale);
        calls.Add(meta, scale);
      }
      {
        SpanScope s(spans, "StagedFunction::Run b8 traced", "exec");
        ag::obs::RunMetadata meta;
        const Clock::time_point start = Clock::now();
        (void)direct.Run(b8, &traced, &meta);
        b8_ms.push_back(MsSince(start) * scale);
      }
    }
  });
  server.Stop();
  const ag::serve::ServeStats stats = server.stats();

  frontend.ReportTo(report);
  report.Set("core.eager_ops_per_call",
             static_cast<double>(eager_ops) / pool_size, "count");
  report.Set("exec.nodes_per_call", nodes_per_call, "count");
  report.Set("exec.kernels_per_call", kernels_per_call, "count");
  report.Set("exec.while_iters_per_call",
             static_cast<double>(while_iters) / pool_size, "count");
  calls.ReportTensorLayer(report, roofline, /*engine_overhead=*/true);
  report.Set("serve.queue_wait_ms", Median(queue_wait_ms), "ms");
  report.Set("serve.avg_batch",
             stats.batched_runs > 0
                 ? static_cast<double>(stats.batch_requests) /
                       static_cast<double>(stats.batched_runs)
                 : 1.0,
             "count");
  report.Set("serve.batched_frac",
             stats.succeeded > 0 ? static_cast<double>(stats.batch_requests) /
                                       static_cast<double>(stats.succeeded)
                                 : 0.0,
             "frac");
  report.Set("serve.exec_ms_b1", Median(b1_ms), "ms");
  report.Set("serve.exec_ms_b8", Median(b8_ms), "ms");
  report.Set("serve.light_p99_ms", Percentile(light_ms, 0.99), "ms");
  report.Set("serve.saturated_p99_ms", Percentile(saturated_ms, 0.99), "ms");
  report.Set("serve.failed", static_cast<double>(stats.failed), "count");
  report.Set("serve.rejected_full", static_cast<double>(stats.rejected_full),
             "count");
  report.Set("serve.expired", static_cast<double>(stats.expired_in_queue),
             "count");
  report.Set("artifact.load_ms", Median(load_ms), "ms");
  report.Set("artifact.load_allocs", static_cast<double>(load_allocs),
             "count");
  report.Set("artifact.plans_compiled",
             static_cast<double>(
                 direct.session->stats().plans_compiled.load()),
             "count");
  report.NotOnPath(LanternMetrics());
  report.Set("obs.trace_overhead_frac",
             Median(b1_ms) / Median(b1_untraced_ms) - 1.0, "frac");
  report.Note(stats.DebugString());
  std::filesystem::remove(path);
}

}  // namespace perfbench
