#include "hype/hype.h"

namespace smoqe::hype {

HypeEvaluator::HypeEvaluator(const xml::Tree& tree, const automata::Mfa& mfa,
                             EvalOptions options)
    : batch_(tree, {&mfa}, options) {}

std::vector<xml::NodeId> HypeEvaluator::Eval(xml::NodeId context) {
  return std::move(batch_.EvalAll(context)[0]);
}

StatusOr<std::vector<xml::NodeId>> HypeEvaluator::Eval(
    xml::NodeId context, const EvalControl& control) {
  EvalGate gate(&control);
  std::vector<std::vector<xml::NodeId>> answers =
      batch_.EvalAll(context, &gate);
  // An aborted pass leaves the evaluator reusable; its answers are dropped.
  if (gate.tripped()) return gate.status();
  return std::move(answers[0]);
}

}  // namespace smoqe::hype
