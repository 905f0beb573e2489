// lbfgs (Appendix D.2) and beam_search (Appendix D.1): one PyMini
// function, staged with AutoGraph::Stage and called eagerly with
// AutoGraph::CallEager on the same seeded inputs. Every call pair is
// checked: the staged outputs must match the eager interpreter's.
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/api.h"
#include "layers.h"
#include "workloads.h"
#include "workloads/beam_search.h"
#include "workloads/lbfgs.h"

namespace perfbench {
namespace {

using ag::Tensor;
using ag::core::AutoGraph;
using ag::core::StageArg;
using ag::core::StagedFunction;
using ag::core::Value;
using ag::exec::RuntimeValue;

struct GraphCase {
  std::string fn;
  std::string source;
  std::function<void(AutoGraph&)> install;
  std::vector<StageArg> stage_args;
  // Seeded inputs, cycled through by the measuring loop.
  std::vector<std::vector<Tensor>> pool;
  // The first call of each cold set-up. Fixed across seeds, so set-up
  // time does not depend on how much work one seeded input happens to
  // need.
  std::vector<Tensor> setup_input;
  // Staged outputs vs the eager interpreter's result on the same input.
  std::function<bool(const std::vector<RuntimeValue>&, const Value&)> matches;
  // Drift sensitivity (see kCalibReferenceMs).
  double alpha = 1.0;
};

std::vector<RuntimeValue> Feeds(const std::vector<Tensor>& in) {
  return {in.begin(), in.end()};
}

std::vector<Value> EagerArgs(const std::vector<Tensor>& in) {
  std::vector<Value> args;
  for (const Tensor& t : in) args.emplace_back(t);
  return args;
}

StagedFunction StageCase(AutoGraph& agc, const GraphCase& c) {
  c.install(agc);
  return agc.Stage(c.fn, c.stage_args);
}

// One cold set-up as a fresh process would pay it: new AutoGraph,
// install, Stage, first Run (which compiles the plans). Raw ms.
double ColdSetupMs(const GraphCase& c, Report& report) {
  const Clock::time_point start = Clock::now();
  try {
    AutoGraph agc;
    StagedFunction sf = StageCase(agc, c);
    (void)sf.Run(Feeds(c.setup_input));
  } catch (const std::exception& e) {
    report.Fail(std::string("setup: ") + e.what());
  }
  return MsSince(start);
}

void RunUntraced(Context& ctx, const GraphCase& c) {
  Report& report = ctx.report;
  AutoGraph agc;
  StagedFunction staged = StageCase(agc, c);
  std::vector<std::vector<RuntimeValue>> feeds;
  std::vector<std::vector<Value>> eager_args;
  for (const auto& in : c.pool) {
    feeds.push_back(Feeds(in));
    eager_args.push_back(EagerArgs(in));
  }
  // Warm-up: plan compile and pool fill happen outside the samples.
  (void)staged.Run(feeds[0]);
  (void)agc.CallEager(c.fn, eager_args[0]);

  Samples setup_ms, staged_ms, eager_ms;
  size_t next = 0;
  RunRounds(ctx.args.seconds, c.alpha, report, [&](double scale) {
    setup_ms.Add(ColdSetupMs(c, report), scale);
    const Clock::time_point slice = Clock::now();
    while (MsSince(slice) < kSliceMs) {
      const size_t i = next % c.pool.size();
      // Alternate which path runs first so neither always meets warm
      // caches.
      const bool staged_first = next % 2 == 0;
      ++next;
      try {
        std::vector<RuntimeValue> staged_out;
        Value eager_out;
        for (int k = 0; k < 2; ++k) {
          const Clock::time_point start = Clock::now();
          if ((k == 0) == staged_first) {
            staged_out = staged.Run(feeds[i]);  // null options: untraced
            staged_ms.Add(MsSince(start), scale);
          } else {
            eager_out = agc.CallEager(c.fn, eager_args[i]);
            eager_ms.Add(MsSince(start), scale);
          }
        }
        report.Check(c.matches(staged_out, eager_out));
      } catch (const std::exception& e) {
        report.Fail(e.what());
      }
    }
  });
  // RunOptions::step_stats defaults to true, so a timed call that passed
  // options would have profiled itself; the untimed path must leave the
  // cumulative metadata without step stats.
  if (!staged.metadata.step_stats.nodes.empty()) {
    report.Fail("untraced staged calls recorded step stats");
  }
  ReportEndToEnd(ctx, setup_ms, staged_ms, eager_ms,
                 1000.0 / Mean(staged_ms.Reference()));
}

void RunTraced(Context& ctx, const GraphCase& c) {
  Report& report = ctx.report;
  Spans& spans = ctx.spans;
  ag::obs::RunOptions traced;
  traced.step_stats = true;

  AutoGraph agc;
  StagedFunction staged = StageCase(agc, c);
  std::vector<std::vector<RuntimeValue>> feeds;
  std::vector<std::vector<Value>> eager_args;
  for (const auto& in : c.pool) {
    feeds.push_back(Feeds(in));
    eager_args.push_back(EagerArgs(in));
  }
  (void)staged.Run(feeds[0]);

  // Exact counts: one pass over the whole pool, so they depend only on
  // the seed.
  const int64_t nodes0 = staged.session->stats().nodes_executed.load();
  const int64_t kernels0 = staged.session->stats().kernel_invocations.load();
  int64_t while_iters = 0;
  int64_t eager_ops = 0;
  for (size_t i = 0; i < c.pool.size(); ++i) {
    ag::obs::RunMetadata meta;
    std::vector<RuntimeValue> out = staged.Run(feeds[i], &traced, &meta);
    while_iters += meta.while_iterations;
    ag::obs::RunMetadata eager_meta;
    Value eager_out = agc.CallEager(c.fn, eager_args[i], &traced, &eager_meta);
    eager_ops += eager_meta.step_stats.TotalNodeExecutions();
    report.Check(c.matches(out, eager_out));
  }
  const auto pool_size = static_cast<double>(c.pool.size());
  const double nodes_per_call =
      static_cast<double>(staged.session->stats().nodes_executed.load() -
                          nodes0) / pool_size;
  const double kernels_per_call =
      static_cast<double>(staged.session->stats().kernel_invocations.load() -
                          kernels0) / pool_size;

  std::vector<double> untraced_ms, traced_ms;
  FrontendProbe frontend;
  TracedCalls calls;
  Roofline roofline;
  size_t next = 0;
  int64_t call_id = 0;
  RunRounds(ctx.args.seconds, c.alpha, report, [&](double scale) {
    if (roofline.gflops == 0) roofline = MeasureRoofline(scale);
    frontend.Sample(
        spans, c.source,
        [&](AutoGraph& fresh) { return StageCase(fresh, c); },
        Feeds(c.setup_input), scale);
    const Clock::time_point slice = Clock::now();
    while (MsSince(slice) < kSliceMs) {
      const size_t i = next++ % c.pool.size();
      SpanScope call(spans, "call", "bench", ++call_id);
      {
        SpanScope s(spans, "StagedFunction::Run", "exec");
        const Clock::time_point start = Clock::now();
        (void)staged.Run(feeds[i]);
        untraced_ms.push_back(MsSince(start) * scale);
      }
      {
        SpanScope s(spans, "StagedFunction::Run traced", "exec");
        ag::obs::RunMetadata meta;
        const Clock::time_point start = Clock::now();
        (void)staged.Run(feeds[i], &traced, &meta);
        traced_ms.push_back(MsSince(start) * scale);
        calls.Add(meta, scale);
      }
      {
        SpanScope s(spans, "AutoGraph::CallEager", "core");
        (void)agc.CallEager(c.fn, eager_args[i]);
      }
    }
  });

  frontend.ReportTo(report);
  report.Set("core.eager_ops_per_call",
             static_cast<double>(eager_ops) / pool_size, "count");
  report.Set("exec.nodes_per_call", nodes_per_call, "count");
  report.Set("exec.kernels_per_call", kernels_per_call, "count");
  report.Set("exec.while_iters_per_call",
             static_cast<double>(while_iters) / pool_size, "count");
  calls.ReportTensorLayer(report, roofline, /*engine_overhead=*/true);
  report.NotOnPath(ServeMetrics());
  report.NotOnPath(ArtifactMetrics());
  report.NotOnPath(LanternMetrics());
  report.Set("obs.trace_overhead_frac",
             Median(traced_ms) / Median(untraced_ms) - 1.0, "frac");
}

void RunGraphCase(Context& ctx, const GraphCase& c) {
  if (ctx.args.trace) {
    RunTraced(ctx, c);
  } else {
    RunUntraced(ctx, c);
  }
}

}  // namespace

void RunLbfgs(Context& ctx) {
  // Appendix D.2: samples 10, dim 50, history 5, 30 iterations. Each
  // call runs ~5.3k tiny nodes, so engine and per-op overhead dominate.
  ag::workloads::LbfgsConfig config;
  GraphCase c;
  c.fn = "lbfgs";
  c.alpha = 1.5;
  c.source = ag::workloads::LbfgsSource();
  c.install = [config](AutoGraph& agc) {
    ag::workloads::InstallLbfgs(agc, config);
  };
  c.stage_args = {StageArg::Placeholder("x"), StageArg::Placeholder("y"),
                  StageArg::Placeholder("w")};
  for (uint64_t i = 0; i < 16; ++i) {
    ag::workloads::LbfgsConfig problem = config;
    problem.seed = ctx.args.seed * 1000 + i;
    ag::workloads::LbfgsInputs in = ag::workloads::MakeLbfgsInputs(problem);
    c.pool.push_back({in.x, in.y, in.w0});
  }
  const ag::workloads::LbfgsInputs fixed =
      ag::workloads::MakeLbfgsInputs(config);
  c.setup_input = {fixed.x, fixed.y, fixed.w0};
  // Tolerances of tests/appendix_workloads_test.cc.
  c.matches = [](const std::vector<RuntimeValue>& staged, const Value& eager) {
    const auto& elts = eager.AsTuple()->elts;
    return Close(ag::exec::AsTensor(staged[0]), elts[0].AsTensor(), 1e-3f) &&
           std::fabs(ag::exec::AsTensor(staged[1]).scalar() -
                     elts[1].AsTensor().scalar()) <= 1e-4f;
  };
  RunGraphCase(ctx, c);
}

void RunBeamSearch(Context& ctx) {
  // Appendix D.1 at max_len 64, vocab 2048, beam 8, hidden 64, eos_bias
  // 1.0: kernels (LogSoftmax, broadcast Add, MatMul) dominate, and the
  // data-dependent break makes loop counts vary across inputs. The model
  // is fixed; the seed draws the initial states.
  ag::workloads::BeamConfig config;
  config.max_len = 64;
  config.vocab = 2048;
  config.beam = 8;
  config.hidden = 64;
  config.eos_bias = 1.0f;
  const ag::workloads::BeamInputs model =
      ag::workloads::MakeBeamInputs(config);
  GraphCase c;
  c.fn = "beam_search";
  c.alpha = 0.5;
  c.source = ag::workloads::BeamSearchSource();
  c.install = [config, model](AutoGraph& agc) {
    ag::workloads::InstallBeamSearch(agc, config, model);
  };
  c.stage_args = {StageArg::Placeholder("state"),
                  StageArg::Placeholder("scores"),
                  StageArg::Placeholder("tokens", ag::DType::kInt32)};
  c.setup_input = {model.init_state, model.init_scores, model.init_tokens};
  ag::Rng rng(ctx.args.seed);
  for (int i = 0; i < 32; ++i) {
    c.pool.push_back(
        {rng.Normal(ag::Shape({config.beam, config.hidden})),
         Tensor::Zeros(ag::Shape({config.beam})),
         rng.UniformInt(ag::Shape({config.beam}), config.vocab)});
  }
  // Scores within the test tolerance; tokens and steps exactly.
  c.matches = [](const std::vector<RuntimeValue>& staged, const Value& eager) {
    const auto& elts = eager.AsTuple()->elts;
    return Close(ag::exec::AsTensor(staged[0]), elts[0].AsTensor(), 1e-4f) &&
           Close(ag::exec::AsTensor(staged[1]), elts[1].AsTensor(), 0.0f) &&
           ag::exec::AsTensor(staged[2]).scalar_int() == elts[2].AsInt();
  };
  RunGraphCase(ctx, c);
}

void ReportEndToEnd(Context& ctx, const Samples& setup_ms,
                    const Samples& staged_ms, const Samples& eager_ms,
                    double rps) {
  Report& r = ctx.report;
  r.Set("setup_s", Median(setup_ms.Reference()) / 1000.0, "s");
  r.Set("staged_p50_ms", Percentile(staged_ms.Reference(), 0.5),
        "ms");
  r.Set("staged_p90_ms", Percentile(staged_ms.Reference(), 0.9),
        "ms");
  r.Set("eager_p50_ms", Percentile(eager_ms.Reference(), 0.5), "ms");
  r.Set("saturated_rps", rps, "1/s");
  r.Set("peak_rss_mb", PeakRssMb(), "MB");
  r.Set("ok_frac",
        r.attempted() > 0 ? static_cast<double>(r.correct()) /
                                static_cast<double>(r.attempted())
                          : 0,
        "frac");
  NoteSamples(r, "setup ms", setup_ms);
  NoteSamples(r, "staged ms", staged_ms);
  NoteSamples(r, "eager ms", eager_ms);
}

}  // namespace perfbench
