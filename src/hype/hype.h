// Algorithm HyPE (Hybrid Pass Evaluation), Section 6 of the paper.
//
// Evaluates an MFA over a document tree with a single top-down depth-first
// pass. Going down, the selecting-NFA state sets (mstates) and the requested
// AFA states (fstates↓) prune subtrees that cannot contribute. Coming back
// up, AFA truth values (fstates↑) are synthesized bottom-up, each node's
// same-node operator states resolved by a small monotone fixpoint. The pass
// records the run in a cans DAG; vertices whose filter failed are deleted at
// pop time, and one traversal of cans yields exactly the nodes reachable
// through fully validated runs.
//
// Two engineering refinements over the paper's pseudo-code (both behavior
// preserving, see DESIGN.md):
//  - guard regions: cans bookkeeping only starts below the first node whose
//    mstates contain a filter-annotated state; answers above emit directly,
//    keeping cans far smaller than T (the paper's own observation);
//  - lazy-DFA configurations: the (mstates, seeds, fstates↓) triples are
//    hash-consed and child transitions memoized per (config, label), so the
//    per-node cost is a table lookup instead of a set construction (the
//    determinization idea of Green et al. [13], applied to MFAs).
//
// With a SubtreeLabelIndex the evaluator additionally drops requested states
// that cannot reach an accepting configuration using only the labels present
// below a child (OptHyPE / OptHyPE-C); transitions are then memoized per
// (config, label, label-set).
//
// The per-run evaluation state lives in hype::HypeEngine (engine.h); the
// query-derived state -- configuration store, memoized transition tables --
// in a shareable hype::TransitionPlane (transition_plane.h); the traversal
// in BatchHypeEvaluator (batch_hype.h), an explicit-stack walk over the
// columnar document plane that drives any number of engines at once.
// HypeEvaluator is the single-query front end: a one-slot
// BatchHypeEvaluator, so solo and batched evaluation share one driver.

#ifndef SMOQE_HYPE_HYPE_H_
#define SMOQE_HYPE_HYPE_H_

#include <vector>

#include "automata/mfa.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "hype/batch_hype.h"
#include "hype/engine.h"
#include "xml/tree.h"

namespace smoqe::hype {

class HypeEvaluator {
 public:
  /// A one-slot BatchHypeEvaluator over `mfa`: builds (and owns) the
  /// columnar plane of `tree` unless options.plane provides a shared one.
  HypeEvaluator(const xml::Tree& tree, const automata::Mfa& mfa,
                EvalOptions options = {});

  /// n[[M]]: sorted ids of the answer nodes of the MFA at `context`.
  std::vector<xml::NodeId> Eval(xml::NodeId context);

  /// Abortable Eval: polls `control` at the documented checkpoint interval
  /// and returns kCancelled / kDeadlineExceeded instead of answers when the
  /// traversal is aborted. The evaluator stays reusable after an abort.
  StatusOr<std::vector<xml::NodeId>> Eval(xml::NodeId context,
                                          const EvalControl& control);

  /// Statistics of the last Eval call.
  const EvalStats& stats() const { return batch_.stats(0); }

  /// Driver statistics of the last Eval call (jump-mode diagnostics).
  const SharedPassStats& pass_stats() const { return batch_.pass_stats(); }

 private:
  BatchHypeEvaluator batch_;
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_HYPE_H_
