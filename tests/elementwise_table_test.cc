// Table-consistency suite for the elementwise op table
// (tensor/elementwise_ops.def). For every table op, input dtype and
// kernel backend, the graph dtype rule (InferDtype), the unfused graph
// kernel and the op's fused step agree on the result dtype, and the
// fused bits equal the unfused bits. Binary ops sweep the second
// operand over every dtype too, so mixed-dtype promotion is covered.
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "exec/kernels.h"
#include "exec/value.h"
#include "graph/fusion.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "support/pass_pipeline.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor_ops.h"

namespace ag {
namespace {

using tensor::simd::KernelBackend;

struct TableCase {
  std::string op;
  int arity = 1;
  DType dtype = DType::kFloat32;  // dtype of the first operand
  KernelBackend backend = KernelBackend::kScalar;
};

// Printed by value so the test names gtest lists (and CTest registers)
// stay the same across builds.
void PrintTo(const TableCase& c, std::ostream* os) {
  *os << c.op << " on " << DTypeName(c.dtype) << " ("
      << tensor::simd::KernelBackendName(c.backend) << ")";
}

constexpr DType kDtypes[] = {DType::kFloat32, DType::kInt32, DType::kBool};

std::vector<TableCase> AllCases() {
  struct Row {
    const char* name;
    int arity;
  };
  static constexpr Row kRows[] = {
#define AG_ELEMENTWISE_OP(Name, Arity, ...) {#Name, Arity},
#include "tensor/elementwise_ops.def"
  };
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (tensor::simd::Avx2Available()) backends.push_back(KernelBackend::kAvx2);
  std::vector<TableCase> cases;
  for (KernelBackend backend : backends) {
    for (const Row& row : kRows) {
      for (DType dtype : kDtypes) {
        cases.push_back(TableCase{row.name, row.arity, dtype, backend});
      }
    }
  }
  return cases;
}

// 19 values — two full 8-lane vectors plus a scalar tail — valid for
// `dtype` (integral for int32, 0/1 for bool). `shift` rotates the
// pattern so the two operands of a binary op differ elementwise.
Tensor Operand(DType dtype, size_t shift) {
  static const std::vector<float> kFloat = {
      -3.5f, -2.0f, -1.25f, -1.0f, -0.5f, 0.0f, 0.25f, 0.5f, 0.75f, 1.0f,
      1.5f,  2.0f,  2.5f,   3.0f,  4.25f, -0.75f, 7.0f, -6.0f, 0.125f};
  static const std::vector<float> kInt = {-4, -3, -2, -1, 0, 1, 2, 3, 4, 5,
                                          -5, 6,  7,  -7, 8, 1, 2, -1, 3};
  static const std::vector<float> kBool = {0, 1, 1, 0, 1, 0, 0, 1, 1, 1,
                                           0, 0, 1, 0, 1, 1, 0, 1, 0};
  const std::vector<float>& base = dtype == DType::kFloat32 ? kFloat
                                   : dtype == DType::kInt32 ? kInt
                                                            : kBool;
  std::vector<float> values(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    values[i] = base[(i + shift) % base.size()];
  }
  return Tensor::FromVector(std::move(values),
                            Shape({static_cast<int64_t>(base.size())}),
                            dtype);
}

class ElementwiseTable : public ::testing::TestWithParam<TableCase> {};

TEST_P(ElementwiseTable, DtypeRuleKernelAndFusedStepAgree) {
  const TableCase& c = GetParam();
  tensor::simd::KernelBackendScope scope(c.backend);
  std::vector<std::vector<Tensor>> operand_sets;
  if (c.arity == 1) {
    operand_sets.push_back({Operand(c.dtype, 0)});
  } else {
    for (DType second : kDtypes) {
      operand_sets.push_back({Operand(c.dtype, 0), Operand(second, 7)});
    }
  }
  for (const std::vector<Tensor>& inputs : operand_sets) {
    SCOPED_TRACE(c.arity == 2 ? std::string("second operand ") +
                                    DTypeName(inputs[1].dtype())
                              : std::string("unary"));

    // Graph dtype rule, and the unfused graph kernel.
    graph::Graph g;
    graph::GraphContext ctx(&g);
    std::vector<graph::Output> feeds;
    for (size_t i = 0; i < inputs.size(); ++i) {
      feeds.push_back(
          graph::Placeholder(ctx, i == 0 ? "a" : "b", inputs[i].dtype()));
    }
    const graph::Output y = graph::Op(ctx, c.op, feeds);
    const Tensor unfused = exec::EvaluatePureNode(*y.node, inputs)[0];

    // The op as a one-step FusedElementwise body, compiled and replayed
    // by the fused kernel.
    graph::FuncGraph body;
    body.set_num_explicit_args(static_cast<int>(inputs.size()));
    std::vector<graph::Output> args;
    for (size_t i = 0; i < inputs.size(); ++i) {
      graph::Node* arg = body.AddNode(
          "Arg", {}, {{"index", static_cast<int64_t>(i)}});
      arg->set_output_dtype(0, inputs[i].dtype());
      args.push_back(arg->out(0));
    }
    graph::GraphContext body_ctx(&body);
    body.returns = {graph::Op(body_ctx, c.op, args)};
    const Tensor fused =
        FusedEval(graph::CompileFusedBody(body), std::vector<Tensor>(inputs));

    EXPECT_EQ(DTypeName(y.node->output_dtype(0)), DTypeName(unfused.dtype()))
        << "graph InferDtype vs unfused kernel";
    EXPECT_EQ(DTypeName(fused.dtype()), DTypeName(unfused.dtype()))
        << "fused step vs unfused kernel";
    ASSERT_EQ(fused.num_elements(), unfused.num_elements());
    EXPECT_EQ(std::memcmp(fused.data(), unfused.data(),
                          static_cast<size_t>(unfused.num_elements()) *
                              sizeof(float)),
              0)
        << "fused bits differ from unfused bits";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ElementwiseTable, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      std::string name = info.param.op;
      name.append("_").append(DTypeName(info.param.dtype));
      name.append("_").append(
          tensor::simd::KernelBackendName(info.param.backend));
      return name;
    });

// The staged program int32 * 0.5 promotes to float32 whether or not the
// fusion pass collapses the chain: the fused kernel tags its output
// with the same table rule as the unfused kernels.
TEST(ElementwiseTableStaged, IntTimesHalfIsFloatWithAndWithoutFusion) {
  for (const char* passes : {"default", "default,-fusion"}) {
    SCOPED_TRACE(passes);
    core::AutoGraph agc;
    agc.LoadSource("def f(x):\n  return tf.abs(x * 0.5)\n");
    core::StageOptions options;
    options.optimize_options.pipeline = PipelineSpec::Parse(passes);
    core::StagedFunction staged = agc.Stage(
        "f", {core::StageArg::Placeholder("x", DType::kInt32)}, options);
    bool has_fused = false;
    for (const auto& n : staged.graph->nodes()) {
      has_fused |= n->op() == "FusedElementwise";
    }
    EXPECT_EQ(has_fused, std::string(passes) == "default");
    const Tensor y = staged.Run1({Tensor::ScalarInt(3)});
    EXPECT_EQ(DTypeName(y.dtype()), DTypeName(DType::kFloat32));
    EXPECT_FLOAT_EQ(y.scalar(), 1.5f);
  }
}

}  // namespace
}  // namespace ag
