#include "graph/ops.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "tensor/tensor_ops.h"

namespace ag::graph {

Output GraphContext::Resolve(Output o) {
  if (!o.valid()) throw InternalError("Resolve: invalid output");
  Graph* owner = o.node->owner();
  if (owner == current()) return o;

  // Find the stack level that owns `o`.
  int level = -1;
  for (size_t i = 0; i < stack_.size(); ++i) {
    if (stack_[i] == owner) {
      level = static_cast<int>(i);
      break;
    }
  }
  if (level < 0) {
    throw StagingError(
        "tensor '" + o.node->name() +
        "' belongs to a different graph and cannot be captured here");
  }
  // Capture through each FuncGraph between `level` and the top.
  Output cur = o;
  for (size_t i = static_cast<size_t>(level) + 1; i < stack_.size(); ++i) {
    auto* fg = dynamic_cast<FuncGraph*>(stack_[i]);
    if (fg == nullptr) {
      throw InternalError("Resolve: non-root graph is not a FuncGraph");
    }
    cur = fg->CaptureExternal(cur);
  }
  return cur;
}

namespace {

// Ops outside the elementwise table whose output dtype is fixed by the
// op's semantics, bucketed by rule so InferDtype /
// InferredDtypeIsAuthoritative resolve with hash lookups instead of a
// chain of string compares — both sit on hot paths (every OpN during
// tracing, every node during AGV104 verification, including at artifact
// load). Elementwise ops take their rule from the table
// (tensor/elementwise_ops.def).
enum class DtypeRule : uint8_t {
  kPropagate,  // not authoritative: dtype follows the inputs
  kInt,
  kFloat,  // float regardless of input dtype
  kInt8,
  kCast,
  kFused,
};

DtypeRule RuleFor(const std::string& op) {
  static const std::unordered_map<std::string_view, DtypeRule> kRules = {
      {"ArgMax", DtypeRule::kInt},
      {"Range", DtypeRule::kInt},
      {"Shape", DtypeRule::kInt},
      {"Size", DtypeRule::kInt},
      {"TensorListLen", DtypeRule::kInt},
      {"Dim0", DtypeRule::kInt},
      {"Softmax", DtypeRule::kFloat},
      {"LogSoftmax", DtypeRule::kFloat},
      {"SoftmaxCrossEntropy", DtypeRule::kFloat},
      {"SoftmaxCrossEntropyGrad", DtypeRule::kFloat},
      {"OneHot", DtypeRule::kFloat},
      {"RandomNormal", DtypeRule::kFloat},
      {"RandomUniform", DtypeRule::kFloat},
      // Quantization boundary ops (inserted by the quantize_weights
      // pass); Dequantize/QuantizedMatMul produce float.
      {"Quantize", DtypeRule::kInt8},
      {"Dequantize", DtypeRule::kFloat},
      {"QuantizedMatMul", DtypeRule::kFloat},
      {"Cast", DtypeRule::kCast},
      {"FusedElementwise", DtypeRule::kFused},
  };
  auto it = kRules.find(op);
  return it == kRules.end() ? DtypeRule::kPropagate : it->second;
}

}  // namespace

DType InferDtype(const std::string& op, const std::vector<Output>& inputs,
                 const AttrMap& attrs) {
  auto input_dtype = [&inputs](size_t i) {
    return i < inputs.size() && inputs[i].valid()
               ? inputs[i].node->output_dtype(inputs[i].index)
               : DType::kFloat32;
  };
  if (const ElementwiseOpInfo* info = FindElementwiseOp(op)) {
    const DType a = input_dtype(0);
    return ElementwiseResultDType(info->dtype, a,
                                  info->arity == 2 ? input_dtype(1) : a);
  }
  switch (RuleFor(op)) {
    case DtypeRule::kInt:
      return DType::kInt32;
    case DtypeRule::kInt8:
      return DType::kInt8;
    case DtypeRule::kFloat:
      return DType::kFloat32;
    case DtypeRule::kCast: {
      auto it = attrs.find("dtype");
      if (it != attrs.end()) return std::get<DType>(it->second);
      return DType::kFloat32;
    }
    case DtypeRule::kFused: {
      // A fused chain's dtype is whatever its body returns.
      auto it = attrs.find("body");
      if (it != attrs.end()) {
        const auto* fg = dynamic_cast<const FuncGraph*>(
            std::get<std::shared_ptr<Graph>>(it->second).get());
        if (fg != nullptr && fg->returns.size() == 1 &&
            fg->returns[0].valid()) {
          return fg->returns[0].node->output_dtype(fg->returns[0].index);
        }
      }
      return DType::kFloat32;
    }
    case DtypeRule::kPropagate:
      break;
  }
  // Where(cond, x, y) selects between x and y: its output carries the
  // value dtype, not the bool condition in input 0. (Latent bug found
  // by the AGV105 loop-var invariance check: tf.where on loop state
  // recorded dtype bool, making every such While loop-carried slot
  // inconsistent.)
  if (op == "Where" && inputs.size() >= 2 && inputs[1].valid()) {
    return input_dtype(1);
  }
  // Dtype-propagating ops: use the first tensor input if present.
  return input_dtype(0);
}

bool InferredDtypeIsAuthoritative(const std::string& op) {
  return FindElementwiseOp(op) != nullptr ||
         RuleFor(op) != DtypeRule::kPropagate;
}

std::vector<Output> OpN(GraphContext& ctx, const std::string& op,
                        std::vector<Output> inputs, AttrMap attrs,
                        int num_outputs) {
  for (Output& in : inputs) in = ctx.Resolve(in);
  const DType dtype = InferDtype(op, inputs, attrs);
  Node* node = ctx.current()->AddNode(op, std::move(inputs), std::move(attrs),
                                      num_outputs);
  for (int i = 0; i < num_outputs; ++i) node->set_output_dtype(i, dtype);
  // Multi-output special cases.
  if (op == "TopK" && num_outputs == 2) {
    node->set_output_dtype(1, DType::kInt32);
  }
  // TensorList-producing ops.
  if (op == "TensorListNew" || op == "TensorListPushBack" ||
      op == "TensorListSet") {
    node->set_output_is_list(0, true);
  }
  if (op == "TensorListPopBack") {
    node->set_output_is_list(0, true);  // output 1 is the popped tensor
  }
  std::vector<Output> outs;
  outs.reserve(static_cast<size_t>(num_outputs));
  for (int i = 0; i < num_outputs; ++i) outs.push_back(node->out(i));
  return outs;
}

Output Op(GraphContext& ctx, const std::string& op, std::vector<Output> inputs,
          AttrMap attrs) {
  return OpN(ctx, op, std::move(inputs), std::move(attrs), 1)[0];
}

Output Const(GraphContext& ctx, Tensor value) {
  const DType dtype = value.dtype();
  Node* node = ctx.current()->AddNode("Const", {},
                                      {{"value", std::move(value)}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

Output Placeholder(GraphContext& ctx, const std::string& name, DType dtype) {
  Node* node =
      ctx.current()->AddNode("Placeholder", {}, {{"name", name}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

Output Variable(GraphContext& ctx, const std::string& var_name, DType dtype) {
  Node* node =
      ctx.current()->AddNode("Variable", {}, {{"var_name", var_name}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

Output Assign(GraphContext& ctx, const std::string& var_name, Output value) {
  value = ctx.Resolve(value);
  const DType dtype = value.node->output_dtype(value.index);
  Node* node = ctx.current()->AddNode("Assign", {value},
                                      {{"var_name", var_name}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

std::vector<Output> Cond(GraphContext& ctx, Output pred,
                         const std::function<std::vector<Output>()>& then_fn,
                         const std::function<std::vector<Output>()>& else_fn) {
  pred = ctx.Resolve(pred);

  auto then_graph = std::make_shared<FuncGraph>();
  ctx.Push(then_graph.get());
  std::vector<Output> then_outs;
  try {
    then_outs = then_fn();
  } catch (...) {
    ctx.Pop();
    throw;
  }
  for (Output& o : then_outs) o = ctx.Resolve(o);
  then_graph->returns = then_outs;
  ctx.Pop();

  auto else_graph = std::make_shared<FuncGraph>();
  ctx.Push(else_graph.get());
  std::vector<Output> else_outs;
  try {
    else_outs = else_fn();
  } catch (...) {
    ctx.Pop();
    throw;
  }
  for (Output& o : else_outs) o = ctx.Resolve(o);
  else_graph->returns = else_outs;
  ctx.Pop();

  if (then_outs.size() != else_outs.size()) {
    throw StagingError(
        "cond: branches produce a different number of values (" +
        std::to_string(then_outs.size()) + " vs " +
        std::to_string(else_outs.size()) +
        "); all code paths must produce consistent values");
  }

  // Call-site inputs: pred, then-captures, else-captures. The captures
  // live in the *current* graph (or are themselves resolvable there).
  std::vector<Output> inputs{pred};
  for (const Output& c : then_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }
  for (const Output& c : else_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }

  const int n = static_cast<int>(then_outs.size());
  Node* node = ctx.current()->AddNode(
      "Cond", std::move(inputs),
      {{"then_branch", std::static_pointer_cast<Graph>(then_graph)},
       {"else_branch", std::static_pointer_cast<Graph>(else_graph)},
       {"then_ncaps", static_cast<int64_t>(then_graph->captures.size())}},
      std::max(n, 1));
  for (int i = 0; i < n; ++i) {
    const Output& o = then_outs[static_cast<size_t>(i)];
    node->set_output_dtype(i, o.node->output_dtype(o.index));
    node->set_output_is_list(i, o.node->output_is_list(o.index));
  }
  std::vector<Output> outs;
  outs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) outs.push_back(node->out(i));
  return outs;
}

std::vector<Output> While(
    GraphContext& ctx, std::vector<Output> init,
    const std::function<Output(const std::vector<Output>&)>& cond_fn,
    const std::function<std::vector<Output>(const std::vector<Output>&)>&
        body_fn) {
  const int n = static_cast<int>(init.size());
  for (Output& o : init) o = ctx.Resolve(o);

  auto make_args = [n](FuncGraph* g, const std::vector<Output>& init_vals) {
    g->set_num_explicit_args(n);
    std::vector<Output> args;
    args.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Node* arg = g->AddNode("Arg", {}, {{"index", static_cast<int64_t>(i)}});
      const Output& o = init_vals[static_cast<size_t>(i)];
      arg->set_output_dtype(0, o.node->output_dtype(o.index));
      arg->set_output_is_list(0, o.node->output_is_list(o.index));
      args.push_back(arg->out(0));
    }
    return args;
  };

  auto cond_graph = std::make_shared<FuncGraph>();
  ctx.Push(cond_graph.get());
  try {
    std::vector<Output> args = make_args(cond_graph.get(), init);
    Output test = ctx.Resolve(cond_fn(args));
    cond_graph->returns = {test};
  } catch (...) {
    ctx.Pop();
    throw;
  }
  ctx.Pop();

  auto body_graph = std::make_shared<FuncGraph>();
  ctx.Push(body_graph.get());
  try {
    std::vector<Output> args = make_args(body_graph.get(), init);
    std::vector<Output> next = body_fn(args);
    if (static_cast<int>(next.size()) != n) {
      throw StagingError(
          "while: body must return as many values as there are loop "
          "variables (" +
          std::to_string(n) + "), got " + std::to_string(next.size()));
    }
    for (Output& o : next) o = ctx.Resolve(o);
    body_graph->returns = next;
  } catch (...) {
    ctx.Pop();
    throw;
  }
  ctx.Pop();

  std::vector<Output> inputs = init;
  for (const Output& c : cond_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }
  for (const Output& c : body_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }

  Node* node = ctx.current()->AddNode(
      "While", std::move(inputs),
      {{"cond", std::static_pointer_cast<Graph>(cond_graph)},
       {"body", std::static_pointer_cast<Graph>(body_graph)},
       {"num_loop_vars", static_cast<int64_t>(n)},
       {"cond_ncaps", static_cast<int64_t>(cond_graph->captures.size())}},
      std::max(n, 1));
  for (int i = 0; i < n; ++i) {
    const Output& o = init[static_cast<size_t>(i)];
    node->set_output_dtype(i, o.node->output_dtype(o.index));
    node->set_output_is_list(i, o.node->output_is_list(o.index));
  }
  std::vector<Output> outs;
  outs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) outs.push_back(node->out(i));
  return outs;
}

}  // namespace ag::graph
