// treelstm: Table 3. A training step of the recursive TreeLSTM staged to
// Lantern (StageTreeLstm + RunWithGradients + SGD update) against the
// define-by-run eager-tape step (EagerTreeLstm::TrainStep), on seeded
// trees of ~20 leaves. Both steps start from the same weights; the
// Lantern loss and gradients must match the eager tape's.
#include <cmath>
#include <string>
#include <vector>

#include "lang/parser.h"
#include "layers.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"
#include "workloads/treelstm.h"

namespace perfbench {
namespace {

using ag::Tensor;
using ag::core::AutoGraph;
using ag::core::LanternStagedFunction;
using ag::workloads::EagerTreeLstm;
using ag::workloads::TreeLstmConfig;
using ag::workloads::TreeLstmWeights;

// Leaf counts are drawn from U[10, 30]; a pool this large keeps its
// median tree size, and so the median step time, nearly seed-independent.
constexpr int kTrees = 512;
constexpr double kAlpha = 0.5;  // drift sensitivity, see kCalibReferenceMs

struct StepResult {
  float loss = 0;
  std::vector<Tensor> grads;    // one per weight
  std::vector<Tensor> weights;  // after the SGD update
};

std::vector<ag::lantern::LValue> LanternArgs(
    const ag::lantern::LTreePtr& tree, const std::vector<Tensor>& w) {
  std::vector<ag::lantern::LValue> args{tree};
  for (const Tensor& t : w) args.emplace_back(t);
  return args;
}

StepResult StagedStep(LanternStagedFunction& staged,
                      const ag::lantern::LTreePtr& tree,
                      const std::vector<Tensor>& w, float lr,
                      const ag::obs::RunOptions* options = nullptr,
                      ag::obs::RunMetadata* meta = nullptr) {
  auto [loss, grads] =
      staged.RunWithGradients(LanternArgs(tree, w), options, meta);
  StepResult r;
  r.loss = loss.scalar();
  for (size_t i = 0; i < w.size(); ++i) {
    r.grads.push_back(grads[i + 1]);  // grads[0] belongs to the tree
    r.weights.push_back(
        ag::Sub(w[i], ag::Mul(Tensor::Scalar(lr), grads[i + 1])));
  }
  return r;
}

// Loss within the tolerance of tests/workloads_test.cc; gradients
// recovered from the eager step's update, (w - w_eager) / lr.
bool StepsMatch(const StepResult& staged, float eager_loss,
                const std::vector<Tensor>& w,
                const std::vector<Tensor>& eager_weights, float lr) {
  if (std::fabs(staged.loss - eager_loss) >
      1e-4f * std::fabs(eager_loss) + 1e-5f) {
    return false;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    const Tensor eager_grad = ag::Mul(ag::Sub(w[i], eager_weights[i]),
                                      Tensor::Scalar(1.0f / lr));
    if (!Close(staged.grads[i], eager_grad, 1e-4f)) return false;
  }
  return true;
}

}  // namespace

void RunTreeLstm(Context& ctx) {
  Report& report = ctx.report;
  Spans& spans = ctx.spans;
  TreeLstmConfig config;
  config.hidden = 64;
  config.embed = 64;
  config.mlp = 64;
  config.vocab = 2000;
  config.avg_leaves = 20;
  config.seed = ctx.args.seed;
  // The model's initial weights are fixed; the seed draws the trees.
  std::vector<Tensor> w =
      ag::workloads::InitTreeLstmWeights(config, 3).AsVector();
  const std::vector<ag::lantern::LTreePtr> trees =
      ag::workloads::MakeTrees(kTrees, config);
  // Cold set-ups take their first step on one fixed tree.
  TreeLstmConfig fixed_config = config;
  fixed_config.seed = 23;
  const ag::lantern::LTreePtr setup_tree =
      ag::workloads::MakeTrees(1, fixed_config)[0];

  AutoGraph agc;
  LanternStagedFunction staged = ag::workloads::StageTreeLstm(agc, config);
  (void)StagedStep(staged, trees[0], w, config.lr);  // warm-up

  const auto cold_setup_ms = [&] {
    const Clock::time_point start = Clock::now();
    try {
      AutoGraph fresh;
      LanternStagedFunction sf = [&] {
        SpanScope s(spans, "StageTreeLstm", "lantern");
        return ag::workloads::StageTreeLstm(fresh, config);
      }();
      SpanScope s(spans, "RunWithGradients first", "lantern");
      (void)StagedStep(sf, setup_tree, w, config.lr);
    } catch (const std::exception& e) {
      report.Fail(std::string("setup: ") + e.what());
    }
    return MsSince(start);
  };
  // Eager step from the same weights; returns the eager loss and the
  // weights after its update.
  const auto eager_step = [&](const ag::lantern::LTreePtr& tree,
                              std::vector<Tensor>* eager_weights) {
    EagerTreeLstm model(config, TreeLstmWeights::FromVector(w));
    const Clock::time_point start = Clock::now();
    const float loss = model.TrainStep(tree);
    const double ms = MsSince(start);
    *eager_weights = model.weights().AsVector();
    return std::make_pair(loss, ms);
  };

  size_t next = 0;
  if (!ctx.args.trace) {
    Samples setup_ms, staged_ms, eager_ms;
    RunRounds(ctx.args.seconds, kAlpha, report, [&](double scale) {
      setup_ms.Add(cold_setup_ms(), scale);
      const Clock::time_point slice = Clock::now();
      while (MsSince(slice) < kSliceMs) {
        const ag::lantern::LTreePtr& tree = trees[next++ % trees.size()];
        try {
          const Clock::time_point start = Clock::now();
          StepResult s = StagedStep(staged, tree, w, config.lr);
          staged_ms.Add(MsSince(start), scale);
          std::vector<Tensor> eager_weights;
          auto [eager_loss, ms] = eager_step(tree, &eager_weights);
          eager_ms.Add(ms, scale);
          report.Check(StepsMatch(s, eager_loss, w, eager_weights, config.lr));
          w = std::move(s.weights);
        } catch (const std::exception& e) {
          report.Fail(e.what());
        }
      }
    });
    ReportEndToEnd(ctx, setup_ms, staged_ms, eager_ms,
                   1000.0 / Mean(staged_ms.Reference()));
    return;
  }

  // ---- traced run ----
  ag::obs::RunOptions traced;
  traced.step_stats = true;
  std::vector<double> parse_ms, convert_ms, stage_ms, forward_ms,
      backward_ms, untraced_ms, traced_ms;
  TracedCalls calls;
  Roofline roofline;
  int64_t call_id = 0;
  RunRounds(ctx.args.seconds, kAlpha, report, [&](double scale) {
    if (roofline.gflops == 0) roofline = MeasureRoofline(scale);
    {
      SpanScope setup(spans, "setup", "bench");
      {
        SpanScope s(spans, "lang::ParseStr", "lang");
        const Clock::time_point start = Clock::now();
        ag::lang::ModulePtr module =
            ag::lang::ParseStr(ag::workloads::TreeLstmSource());
        parse_ms.push_back(MsSince(start) * scale);
      }
      {
        AutoGraph fresh;
        fresh.LoadSource(ag::workloads::TreeLstmSource());
        SpanScope s(spans, "Interpreter::ConvertFunctionValue", "transforms");
        const Clock::time_point start = Clock::now();
        (void)fresh.interpreter().ConvertFunctionValue(
            fresh.GetGlobal("sentiment_loss").AsFunction());
        convert_ms.push_back(MsSince(start) * scale);
      }
      AutoGraph fresh;
      SpanScope s(spans, "StageTreeLstm", "lantern");
      const Clock::time_point start = Clock::now();
      LanternStagedFunction sf = ag::workloads::StageTreeLstm(fresh, config);
      stage_ms.push_back(MsSince(start) * scale);
    }
    const Clock::time_point slice = Clock::now();
    while (MsSince(slice) < kSliceMs) {
      const ag::lantern::LTreePtr& tree = trees[next++ % trees.size()];
      SpanScope call(spans, "call", "bench", ++call_id);
      {
        SpanScope s(spans, "RunWithGradients", "lantern");
        const Clock::time_point start = Clock::now();
        (void)StagedStep(staged, tree, w, config.lr);
        untraced_ms.push_back(MsSince(start) * scale);
      }
      StepResult step;
      {
        SpanScope s(spans, "RunWithGradients traced", "lantern");
        ag::obs::RunMetadata meta;
        const Clock::time_point start = Clock::now();
        step = StagedStep(staged, tree, w, config.lr, &traced, &meta);
        traced_ms.push_back(MsSince(start) * scale);
        calls.Add(meta, scale);
        auto fwd = meta.phase_ns.find("forward");
        auto bwd = meta.phase_ns.find("backward");
        if (fwd != meta.phase_ns.end()) {
          forward_ms.push_back(static_cast<double>(fwd->second) / 1e6 * scale);
        }
        if (bwd != meta.phase_ns.end()) {
          backward_ms.push_back(static_cast<double>(bwd->second) / 1e6 *
                                scale);
        }
      }
      std::vector<Tensor> eager_weights;
      float eager_loss = 0;
      {
        SpanScope s(spans, "EagerTreeLstm::TrainStep", "eager");
        eager_loss = eager_step(tree, &eager_weights).first;
      }
      report.Check(StepsMatch(step, eager_loss, w, eager_weights, config.lr));
      w = std::move(step.weights);
    }
  });

  report.NotOnPath(FrontendMetrics());
  report.Set("lang.parse_ms", Median(parse_ms), "ms");
  report.Set("transforms.convert_ms", Median(convert_ms), "ms");
  report.NotOnPath(ExecMetrics());
  calls.ReportTensorLayer(report, roofline, /*engine_overhead=*/false);
  report.NotOnPath(ServeMetrics());
  report.NotOnPath(ArtifactMetrics());
  report.Set("lantern.stage_ms", Median(stage_ms), "ms");
  report.Set("lantern.forward_ms", Median(forward_ms), "ms");
  report.Set("lantern.backward_ms", Median(backward_ms), "ms");
  report.Set("obs.trace_overhead_frac",
             Median(traced_ms) / Median(untraced_ms) - 1.0, "frac");
}

}  // namespace perfbench
