#include "oracle.h"

#include "eval/naive_evaluator.h"
#include "xpath/parser.h"

namespace smoqebench {

smoqe::StatusOr<ViewOracle> ViewOracle::Make(const smoqe::view::ViewDef& view,
                                             const smoqe::xml::Tree& source) {
  auto mat = smoqe::view::Materialize(view, source);
  if (!mat.ok()) return mat.status();
  return ViewOracle(mat.take());
}

smoqe::StatusOr<NodeSet> ViewOracle::Answer(const std::string& query) const {
  auto parsed = smoqe::xpath::ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  smoqe::eval::NaiveEvaluator on_view(mat_.tree);
  return smoqe::view::MapToSource(
      mat_, on_view.Eval(parsed.value(), mat_.tree.root()));
}

std::vector<std::string> CheckAnswers(const ViewOracle& oracle,
                                      const std::vector<std::string>& queries,
                                      const std::vector<NodeSet>& served) {
  std::vector<std::string> mismatches;
  if (queries.size() != served.size()) {
    mismatches.push_back("answer count differs from query count");
    return mismatches;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = oracle.Answer(queries[i]);
    if (!expected.ok()) {
      mismatches.push_back(queries[i] + ": oracle failed: " +
                           expected.status().ToString());
    } else if (expected.value() != served[i]) {
      mismatches.push_back(queries[i] + ": served " +
                           std::to_string(served[i].size()) +
                           " nodes, oracle " +
                           std::to_string(expected.value().size()));
    }
  }
  return mismatches;
}

}  // namespace smoqebench
