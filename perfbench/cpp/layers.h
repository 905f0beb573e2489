// Per-layer numbers for traced runs: folding the program's own
// RunMetadata (step stats, allocator counters) into per-call figures,
// per-op kernel throughput against this machine's measured roofline, and
// the list of per-layer metric names every traced run prints.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "harness.h"
#include "obs/run_metadata.h"

namespace perfbench {

// Peak rates measured on this machine (reference-speed units, like every
// other time the benchmark reports).
struct Roofline {
  double gflops = 0;  // 512^3 MatMul through the public tensor op
  double gbps = 0;    // stream copy, bytes read + written
};
[[nodiscard]] Roofline MeasureRoofline(double scale);

// Traced calls of one engine, folded per call.
class TracedCalls {
 public:
  // One traced call's metadata; `scale` converts raw ms to reference ms.
  void Add(const ag::obs::RunMetadata& meta, double scale);

  [[nodiscard]] int64_t calls() const { return calls_; }
  [[nodiscard]] const std::vector<double>& wall_ms() const { return wall_ms_; }

  // Reports tensor.kernel_ms_per_call, tensor.<Op>.*, the allocator
  // figures, the roofline calibration and (when `engine_overhead`)
  // exec.engine_overhead_ms; notes the top ops by time.
  void ReportTensorLayer(Report& report, const Roofline& roofline,
                         bool engine_overhead) const;

 private:
  struct OpTotal {
    int64_t count = 0;
    double ms = 0;  // reference ms
    int64_t flops = 0;
    int64_t bytes = 0;  // input + output
  };
  int64_t calls_ = 0;
  std::vector<double> wall_ms_;
  std::vector<double> kernel_ms_;
  std::vector<double> overhead_ms_;
  int64_t allocs_ = 0;
  int64_t pool_hits_ = 0;
  int64_t peak_live_bytes_ = 0;
  std::map<std::string, OpTotal> ops_;
};

// Front-end cost of cold staging (lang, transforms, core, graph, plan
// compile), sampled once per round of a traced run.
class FrontendProbe {
 public:
  using StageFn =
      std::function<ag::core::StagedFunction(ag::core::AutoGraph&)>;

  // Times lang::ParseStr(source), stages with `stage` on a fresh
  // AutoGraph (reading its convert/trace/optimize phases), then runs the
  // result once traced on `feeds` to read its plan_compile phase.
  void Sample(Spans& spans, const std::string& source, const StageFn& stage,
              const std::vector<ag::exec::RuntimeValue>& feeds, double scale);
  // lang.parse_ms, transforms.convert_ms, core.trace_ms, graph.*,
  // exec.plan_compile_ms.
  void ReportTo(Report& report) const;

 private:
  std::vector<double> parse_ms_, convert_ms_, trace_ms_, optimize_ms_,
      compile_ms_;
  int64_t nodes_after_opt_ = 0;
  int64_t fused_ = 0;
};

// A phase of `meta` in ms (0 when absent).
[[nodiscard]] double PhaseMs(const ag::obs::RunMetadata& meta,
                             const char* phase);

// Per-layer metrics grouped by layer, with units; a workload reports the
// groups it calls and passes the rest to Report::NotOnPath.
using MetricList = std::vector<std::pair<std::string, std::string>>;
[[nodiscard]] MetricList FrontendMetrics();   // lang, transforms, core, graph
[[nodiscard]] MetricList ExecMetrics();       // exec
[[nodiscard]] MetricList ServeMetrics();      // serve
[[nodiscard]] MetricList ArtifactMetrics();   // artifact
[[nodiscard]] MetricList LanternMetrics();    // lantern

}  // namespace perfbench
