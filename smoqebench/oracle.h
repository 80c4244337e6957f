// The correctness gate: the paper's identity Q(σ(T)) = Q'(T). A served
// answer (source node ids) must equal NaiveEvaluator on the materialized
// view σ(T), mapped back to the source through the view's binding.
#ifndef SMOQEBENCH_ORACLE_H_
#define SMOQEBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "view/materializer.h"
#include "view/view_def.h"
#include "xml/tree.h"

namespace smoqebench {

using NodeSet = std::vector<smoqe::xml::NodeId>;

/// Materializes σ(T) once and answers view queries on it.
class ViewOracle {
 public:
  /// `view` and `source` must outlive the oracle.
  static smoqe::StatusOr<ViewOracle> Make(const smoqe::view::ViewDef& view,
                                          const smoqe::xml::Tree& source);
  /// Q(σ(T)) mapped to source ids.
  smoqe::StatusOr<NodeSet> Answer(const std::string& query) const;

 private:
  explicit ViewOracle(smoqe::view::MaterializedView mat)
      : mat_(std::move(mat)) {}
  smoqe::view::MaterializedView mat_;
};

/// Compares served answers to the oracle's, query by query. Returns one
/// line per mismatch (empty = the gate passes); a query the oracle cannot
/// answer is a mismatch too.
std::vector<std::string> CheckAnswers(const ViewOracle& oracle,
                                      const std::vector<std::string>& queries,
                                      const std::vector<NodeSet>& served);

}  // namespace smoqebench

#endif  // SMOQEBENCH_ORACLE_H_
