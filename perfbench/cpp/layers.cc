#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "lang/parser.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

namespace {

// Ops whose kernel figures are reported by name: the union of the top 5
// ops by kernel time of every workload, so a name means the same op on
// every run and every commit. Lantern's ops are lower-case.
const std::vector<std::string>& ReportedOps() {
  static const std::vector<std::string> kOps = {
      // lbfgs
      "FusedElementwise", "IndexAxis0", "Const", "Mul", "ReduceSum",
      // beam_search
      "LogSoftmax", "MatMul", "Add", "TopK",
      // serve_rnn
      "Transpose", "Less",
      // treelstm (Lantern)
      "matmul", "slice0", "add", "mul", "sigmoid"};
  return kOps;
}

}  // namespace

Roofline MeasureRoofline(double scale) {
  Roofline r;
  const ag::Tensor a = ag::Tensor::Full({512, 512}, 0.5f);
  const ag::Tensor b = ag::Tensor::Full({512, 512}, 0.25f);
  double best_ms = 1e30;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    const ag::Tensor c = ag::MatMul(a, b);
    best_ms = std::min(best_ms, MsSince(start));
    if (c.num_elements() != 512 * 512) return r;
  }
  r.gflops = 2.0 * 512 * 512 * 512 / (best_ms * scale * 1e6);

  const size_t n = size_t{8} << 20;  // 32 MiB of floats
  std::vector<float> src(n, 1.0f);
  std::vector<float> dst(n, 0.0f);
  best_ms = 1e30;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    std::memcpy(dst.data(), src.data(), n * sizeof(float));
    best_ms = std::min(best_ms, MsSince(start));
    src[i] = dst[n - 1 - static_cast<size_t>(i)];
  }
  r.gbps = 2.0 * static_cast<double>(n * sizeof(float)) /
           (best_ms * scale * 1e6);
  return r;
}

void TracedCalls::Add(const ag::obs::RunMetadata& meta, double scale) {
  ++calls_;
  const double wall = static_cast<double>(meta.run_wall_ns) / 1e6 * scale;
  const double kernel =
      static_cast<double>(meta.step_stats.TotalNodeNs()) / 1e6 * scale;
  wall_ms_.push_back(wall);
  kernel_ms_.push_back(kernel);
  overhead_ms_.push_back(wall - kernel);
  allocs_ += meta.alloc_count;
  pool_hits_ += meta.pool_hit_count;
  peak_live_bytes_ = std::max(peak_live_bytes_, meta.peak_live_bytes);
  for (const ag::obs::NodeStats& node : meta.step_stats.nodes) {
    // The graph engine records the op type in `op`; Lantern records its
    // op name in `name` and its layer ("lantern") in `op`.
    OpTotal& op = ops_[node.op == "lantern" ? node.name : node.op];
    op.count += node.count;
    op.ms += static_cast<double>(node.total_ns) / 1e6 * scale;
    op.flops += node.flops;
    op.bytes += node.input_bytes + node.output_bytes;
  }
}

void TracedCalls::ReportTensorLayer(Report& report, const Roofline& roofline,
                                    bool engine_overhead) const {
  const double calls = std::max<double>(1, static_cast<double>(calls_));
  report.Set("tensor.kernel_ms_per_call", Median(kernel_ms_), "ms");
  if (engine_overhead) {
    report.Set("exec.engine_overhead_ms", Median(overhead_ms_), "ms");
  }
  for (const std::string& name : ReportedOps()) {
    auto it = ops_.find(name);
    const OpTotal op = it != ops_.end() ? it->second : OpTotal{};
    const double gflops = op.ms > 0 ? op.flops / (op.ms * 1e6) : 0;
    const double gbps = op.ms > 0 ? op.bytes / (op.ms * 1e6) : 0;
    // Attainable rate: the lower of peak compute and bandwidth times the
    // op's arithmetic intensity; ops with no flop count are judged
    // against bandwidth alone.
    double frac = 0;
    if (op.flops > 0 && op.bytes > 0 && roofline.gflops > 0) {
      const double intensity =
          static_cast<double>(op.flops) / static_cast<double>(op.bytes);
      frac = gflops / std::min(roofline.gflops, intensity * roofline.gbps);
    } else if (op.bytes > 0 && roofline.gbps > 0) {
      frac = gbps / roofline.gbps;
    }
    report.Set("tensor." + name + ".ms_per_call", op.ms / calls, "ms");
    report.Set("tensor." + name + ".gflops", gflops, "GFLOP/s");
    report.Set("tensor." + name + ".gbps", gbps, "GB/s");
    report.Set("tensor." + name + ".roofline_frac", frac, "frac");
  }
  report.Set("tensor.allocs_per_call", static_cast<double>(allocs_) / calls,
             "count");
  const int64_t acquisitions = allocs_ + pool_hits_;
  report.Set("tensor.pool_hit_ratio",
             acquisitions > 0 ? static_cast<double>(pool_hits_) /
                                    static_cast<double>(acquisitions)
                              : 0,
             "frac");
  report.Set("tensor.peak_live_mb",
             static_cast<double>(peak_live_bytes_) / (1024.0 * 1024.0), "MB");
  report.Set("tensor.machine_gflops", roofline.gflops, "GFLOP/s");
  report.Set("tensor.machine_gbps", roofline.gbps, "GB/s");

  std::vector<std::pair<double, std::string>> by_time;
  for (const auto& [name, op] : ops_) by_time.emplace_back(op.ms, name);
  std::sort(by_time.rbegin(), by_time.rend());
  std::string line = "top ops (ms/call):";
  for (size_t i = 0; i < by_time.size() && i < 8; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.4f", by_time[i].second.c_str(),
                  by_time[i].first / calls);
    line += buf;
  }
  report.Note(line);
}

double PhaseMs(const ag::obs::RunMetadata& meta, const char* phase) {
  auto it = meta.phase_ns.find(phase);
  return it == meta.phase_ns.end() ? 0.0
                                   : static_cast<double>(it->second) / 1e6;
}

void FrontendProbe::Sample(Spans& spans, const std::string& source,
                           const StageFn& stage,
                           const std::vector<ag::exec::RuntimeValue>& feeds,
                           double scale) {
  SpanScope setup(spans, "setup from source", "bench");
  {
    SpanScope s(spans, "lang::ParseStr", "lang");
    const Clock::time_point start = Clock::now();
    ag::lang::ModulePtr module = ag::lang::ParseStr(source);
    parse_ms_.push_back(MsSince(start) * scale);
  }
  ag::core::AutoGraph agc;
  ag::core::StagedFunction sf = [&] {
    SpanScope s(spans, "AutoGraph::Stage", "core");
    return stage(agc);
  }();
  convert_ms_.push_back(PhaseMs(sf.metadata, "convert") * scale);
  trace_ms_.push_back(PhaseMs(sf.metadata, "trace") * scale);
  optimize_ms_.push_back(PhaseMs(sf.metadata, "optimize") * scale);
  nodes_after_opt_ = static_cast<int64_t>(sf.graph->num_nodes());
  fused_ = sf.optimize_stats.fused;
  ag::obs::RunOptions traced;
  traced.step_stats = true;
  ag::obs::RunMetadata first;
  {
    SpanScope s(spans, "StagedFunction::Run first", "exec");
    (void)sf.Run(feeds, &traced, &first);
  }
  compile_ms_.push_back(PhaseMs(first, "plan_compile") * scale);
}

void FrontendProbe::ReportTo(Report& report) const {
  report.Set("lang.parse_ms", Median(parse_ms_), "ms");
  report.Set("transforms.convert_ms", Median(convert_ms_), "ms");
  report.Set("core.trace_ms", Median(trace_ms_), "ms");
  report.Set("graph.optimize_ms", Median(optimize_ms_), "ms");
  report.Set("graph.nodes_after_opt", static_cast<double>(nodes_after_opt_),
             "count");
  report.Set("graph.fused", static_cast<double>(fused_), "count");
  report.Set("exec.plan_compile_ms", Median(compile_ms_), "ms");
}

MetricList FrontendMetrics() {
  return {{"lang.parse_ms", "ms"},           {"transforms.convert_ms", "ms"},
          {"core.trace_ms", "ms"},           {"core.eager_ops_per_call", "count"},
          {"graph.optimize_ms", "ms"},       {"graph.nodes_after_opt", "count"},
          {"graph.fused", "count"}};
}

MetricList ExecMetrics() {
  return {{"exec.plan_compile_ms", "ms"},
          {"exec.nodes_per_call", "count"},
          {"exec.kernels_per_call", "count"},
          {"exec.while_iters_per_call", "count"},
          {"exec.engine_overhead_ms", "ms"}};
}

MetricList ServeMetrics() {
  return {{"serve.queue_wait_ms", "ms"},     {"serve.avg_batch", "count"},
          {"serve.batched_frac", "frac"},    {"serve.exec_ms_b1", "ms"},
          {"serve.exec_ms_b8", "ms"},        {"serve.light_p99_ms", "ms"},
          {"serve.saturated_p99_ms", "ms"},  {"serve.failed", "count"},
          {"serve.rejected_full", "count"},  {"serve.expired", "count"}};
}

MetricList ArtifactMetrics() {
  return {{"artifact.load_ms", "ms"},
          {"artifact.load_allocs", "count"},
          {"artifact.plans_compiled", "count"}};
}

MetricList LanternMetrics() {
  return {{"lantern.stage_ms", "ms"},
          {"lantern.forward_ms", "ms"},
          {"lantern.backward_ms", "ms"}};
}

}  // namespace perfbench
