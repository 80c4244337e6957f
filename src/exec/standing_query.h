// Standing queries: answer sets kept current across document epochs by
// delta re-evaluation.
//
// A view server's query population is long-lived while the document churns
// (the security-view scenario: per-policy rewritten queries answered
// continuously as the source updates). Re-running every query per write is
// the naive O(|doc|) path; this evaluator instead re-enters only the
// subtree a TreeDelta actually touched.
//
// Per Advance(next, delta) it computes each op's REGION ROOT (the parent
// whose child list changed -- every edited node is strictly below it),
// folds multi-op deltas to their LCA T on the pre-edit tree (T provably
// survives the delta: a deleted subtree's region is its parent, which
// pulls the LCA above the deletion), then probes each query's
// configuration chain root -> T on the NEW tree with the warm shared
// hype::TransitionPlane -- labels strictly above T are unchanged, so the
// chain is the memoized one and a warm advance interns ZERO configurations
// (counter-gated in CI, like the PR-5 reuse gates):
//
//   dead on the chain      the query never reached the edited region;
//                          answers unchanged (skip);
//   non-simple above T     filter truth or cans connectivity crosses the
//                          subtree boundary (BatchHypeEvaluator::EvalSubtree
//                          contract); the query re-evaluates in full;
//   otherwise              SPLICE: old answers whose pre-edit position lay
//                          outside T's pre-edit extent are kept (edits
//                          never move a surviving node across T's
//                          boundary), and EvalSubtree(root, T) on the new
//                          epoch supplies the inside -- the two sets are
//                          disjoint by construction.
//
// Engines and planes are label-bound to the epoch the evaluator was built
// against (pinned via its PlaneEpoch); a delta that GROWS the label
// universe invalidates that binding, so the evaluator rebinds -- a fresh
// TransitionPlaneStore against the new epoch -- and re-evaluates
// everything. No-index mode only (an index is itself a frozen-tree
// artifact; rebuilding it per epoch would dominate the delta path).

#ifndef SMOQE_EXEC_STANDING_QUERY_H_
#define SMOQE_EXEC_STANDING_QUERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "automata/mfa.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "hype/transition_plane.h"
#include "xml/plane_epoch.h"
#include "xml/tree_delta.h"

namespace smoqe::exec {

struct AdvanceStats {
  int64_t queries_skipped = 0;   // dead on the chain: answers carried over
  int64_t queries_spliced = 0;   // subtree re-eval + splice
  int64_t queries_full = 0;      // full re-evaluation
  int64_t configs_interned = 0;  // plane insertions this advance (0 warm)
  bool rebound = false;          // label growth forced a store rebind
};

class StandingQueryEvaluator {
 public:
  /// Evaluates every MFA once over `base` (the cold pass that warms the
  /// shared planes). The MFAs must outlive the evaluator.
  StandingQueryEvaluator(xml::PlaneEpoch base,
                         std::vector<const automata::Mfa*> mfas);

  /// Rolls the answer sets forward to `next`, which must be the epoch
  /// `delta` produced (versions are checked). `delta` is inspected, not
  /// re-applied.
  ///
  /// `control` makes the advance abortable: its gate is polled at the
  /// documented checkpoint interval during the re-evaluation passes, and an
  /// abort returns kCancelled / kDeadlineExceeded with the evaluator still
  /// at the PREVIOUS epoch -- answer updates are staged and committed only
  /// when every pass finishes, so an aborted Advance is simply retried.
  Status Advance(const xml::PlaneEpoch& next, const xml::TreeDelta& delta,
                 AdvanceStats* stats = nullptr,
                 const EvalControl& control = {});

  /// Sorted answer set of mfas()[q] on the current epoch -- bit-identical
  /// to a cold full evaluation there (the randomized suite and the
  /// bench_mutation gate enforce this).
  const std::vector<xml::NodeId>& answers(size_t q) const {
    return answers_[q];
  }
  size_t batch_size() const { return mfas_.size(); }
  uint64_t version() const { return epoch_.version; }
  const xml::PlaneEpoch& epoch() const { return epoch_; }

 private:
  /// Full re-evaluation of `queries` on `epoch`; adds interned counts to
  /// `interned`. Results go to `staged` when non-null (commit-on-success),
  /// directly into answers_ otherwise. Returns false iff `gate` tripped
  /// mid-pass (nothing is staged then).
  bool FullEval(const xml::PlaneEpoch& epoch,
                const std::vector<uint32_t>& queries, int64_t* interned,
                EvalGate* gate,
                std::vector<std::pair<uint32_t, std::vector<xml::NodeId>>>*
                    staged);

  /// Points the shared store at `epoch`'s tree (cold: planes rebuild).
  void Rebind(const xml::PlaneEpoch& epoch);

  std::vector<const automata::Mfa*> mfas_;
  xml::PlaneEpoch binding_;  // the epoch store_'s label binding came from
  std::unique_ptr<hype::TransitionPlaneStore> store_;
  xml::PlaneEpoch epoch_;  // answers_ are current here
  std::vector<std::vector<xml::NodeId>> answers_;
};

}  // namespace smoqe::exec

#endif  // SMOQE_EXEC_STANDING_QUERY_H_
