// The HyPE engine/plane/driver split.
//
// DESIGN NOTE (batched multi-query evaluation)
// --------------------------------------------
// Algorithm HyPE (Section 6 of the paper) answers one MFA per depth-first
// pass over the document. A view server answering many concurrent queries
// against the *same* materialized view repeats that pass per query, so the
// traversal itself — node decoding, child iteration, subtree-label-index
// lookups — dominates. This header splits the original HypeEvaluator into:
//
//  * TransitionPlane (transition_plane.h) — ALL state derived from the query
//    alone: the hash-consed configuration store, the memoized transition and
//    TransAux tables, productivity analyses, relevant-label sets. The
//    rewritten MFA is a fixed object per query, so this derived state is
//    immutable-once-computed and SHARED: every shard worker, batch driver,
//    and service batch evaluating the same query over the same document
//    reads one plane (lock-free steady state; a single writer lock on the
//    cold interning path). Transition computation walks the CompiledMfa CSR
//    mirror (automata/compiled_mfa.h) rather than the construction-oriented
//    Mfa vectors.
//
//  * HypeEngine — the per-RUN state only: the per-depth frames (fstates↑
//    truth values, cans vertices), the cans DAG of the open filter region,
//    epoch-marked scratch, and the run statistics. The engine never walks
//    the tree; it reacts to traversal events:
//
//       PrepareRoot(context_set)  reset the run, resolve the context
//                                 configuration from the context's
//                                 subtree label set
//       BeginFrames(config)       open the bottom frame (the engine was
//                                 frameless above this node)
//       DescendWith(succ)         push a child frame for a memoized plane
//                                 transition (PeekTransition) + prologue
//       ExitNode(n)               epilogue: same-node fixpoint, cans
//                                 deletions, fold fstates↑ into the parent;
//                                 at a region root, last, close the region:
//                                 phase two over its cans records, which
//                                 are then dropped
//       TakeAnswers()             sort and dedupe the run's answers
//
//    EvalStats::configs_interned counts the plane insertions ATTRIBUTED to
//    this engine's calls: a solo engine on a private plane reports the same
//    number as before the split, engines sharing a plane split the total
//    between them, and a warm start reports zero.
//
//  * The traversal driver lives in BatchHypeEvaluator (batch_hype.h): ONE
//    iterative, explicit-stack depth-first walk over a columnar
//    xml::DocPlane that drives any number of engines through a memoized
//    joint transition table, with a posting-list jump mode for runs of
//    transparent positions. It is the only driver: HypeEvaluator (hype.h)
//    is a one-slot BatchHypeEvaluator, and the sharded, standing-query and
//    service paths build on the same evaluator.
//
// The per-node work of the original Visit() is aggressively hoisted into
// intern time: each Config precomputes its intra-node ε-edge pairs, operator
// operand positions (in the CompiledMfa's stratified sweep order), and
// annotated-state positions, and each memoized transition precomputes the
// parent→child cans label-edge pairs and the fstates↑ fold pairs. The hot
// path is then pure array traffic — no binary searches, no position
// stamping.
//
// The explicit stack also removes the recursion of the original Visit(),
// bounding stack use on documents of arbitrary depth (regression-tested at
// depth 100k+).

#ifndef SMOQE_HYPE_ENGINE_H_
#define SMOQE_HYPE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "automata/mfa.h"
#include "hype/cans.h"
#include "hype/index.h"
#include "hype/transition_plane.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::hype {

struct EvalStats {
  int64_t elements_total = 0;
  int64_t elements_visited = 0;
  /// Cans vertices and edges created this run (regions collected at their
  /// root's pop included).
  int64_t cans_vertices = 0;
  int64_t cans_edges = 0;
  /// High-water mark of the engine's resident cans vertices this run: the
  /// largest region, as each region is dropped when its root pops.
  int64_t cans_peak_vertices = 0;
  int64_t afa_state_requests = 0;
  /// TransitionPlane insertions attributed to this engine's calls (zero on a
  /// fully warm plane; the sum across engines sharing a plane equals the
  /// plane's total).
  int64_t configs_interned = 0;

  /// Fraction of element nodes never visited (the paper reports 78.2% for
  /// HyPE and 88% for OptHyPE on its example queries).
  double PrunedFraction() const {
    if (elements_total == 0) return 0.0;
    return 1.0 - static_cast<double>(elements_visited) /
                     static_cast<double>(elements_total);
  }
};

/// Per-query evaluation state of Algorithm HyPE, driven by the batch
/// sharing driver (batch_hype.h). One evaluation is PrepareRoot (+
/// BeginFrames where the engine needs frames); the pass; TakeAnswers(). The
/// transition plane persists across evaluations AND across engines
/// (repeated or sharded Evals get warm transition tables).
class HypeEngine {
 public:
  /// `plane` holds the query's compiled state (shared or private, see
  /// transition_plane.h); it must have been built for `tree` and `mfa`.
  /// `doc_plane` is the columnar plane of `tree` (borrowed); the engine
  /// never walks it, but reads its text-presence bits to short-circuit
  /// text() predicates at pop time (null is sound: predicates then read
  /// the tree).
  HypeEngine(const xml::Tree& tree, const automata::Mfa& mfa,
             std::shared_ptr<TransitionPlane> plane,
             const xml::DocPlane* doc_plane);

  /// Epilogue for the node the engine last entered: same-node operator
  /// fixpoint, cans deletions, answer reporting, fold into the parent frame,
  /// and -- at a region root -- phase two over the region.
  void ExitNode(xml::NodeId node);

  /// Sorted, deduplicated ids of the answer nodes of the completed pass.
  std::vector<xml::NodeId> TakeAnswers();

  const EvalStats& stats() const { return stats_; }

  // ---- low-level hooks for the batch sharing driver (batch_hype.cc) ----

  using SuccRef = hype::SuccRef;

  /// Resets per-run state and resolves the context configuration without
  /// opening a frame (the engine stays frameless); returns the context
  /// configuration id, or -1 when dead. `context_set` is the context's
  /// subtree label set (SubtreeLabelIndex::SetForContext; 0 without an
  /// index) -- the only part of the context node the configuration reads.
  int32_t PrepareRoot(int32_t context_set);

  /// The memoized transition out of `config` (no frame side effects; safe to
  /// call for frameless engines). Plane insertions are attributed to this
  /// engine's configs_interned.
  SuccRef PeekTransition(int32_t config, LabelId tree_label, int32_t eff_set) {
    return trans_->Transition(config, tree_label, eff_set,
                              &stats_.configs_interned);
  }

  /// Pushes a child frame for an already-computed successor and runs the
  /// node prologue. Precondition: a frame is open.
  void DescendWith(SuccRef succ);

  /// Opens the engine's bottom frame mid-pass at a node with configuration
  /// `config` (the engine was frameless above; nothing folds upward).
  /// Precondition: no frame is open.
  void BeginFrames(int32_t config);

  /// Records a direct answer for a frameless engine at `node`.
  void EmitAnswer(xml::NodeId node) { answers_.push_back(node); }

  /// Accounts nodes visited framelessly (batch driver bookkeeping).
  void AddVisited(int64_t n) { stats_.elements_visited += n; }

  bool ConfigDead(int32_t config) const { return trans_->config(config).dead; }
  bool ConfigHasFinal(int32_t config) const {
    return trans_->config(config).has_final;
  }
  /// Simple = no AFA requests, nothing annotated: outside a region the
  /// engine's whole per-node behavior is determined by the config id, so the
  /// batch driver needs no frame for it.
  bool ConfigSimple(int32_t config) const {
    return trans_->config(config).IsSimple();
  }

  /// The RELEVANT labels of a live simple configuration in no-index mode:
  /// tree labels whose memoized child transition leaves `config` (changes
  /// the configuration, prunes, or reaches final/annotated states). On
  /// every other label the transition is the identity self-loop, so a node
  /// carrying one is TRANSPARENT for this engine -- entering it changes
  /// nothing observable but the visit counter. The jump-mode driver skips
  /// runs of transparent positions wholesale (see batch_hype.h). Derived once
  /// per config by probing the full transition row, then cached in the
  /// shared plane. Precondition: no index.
  std::span<const LabelId> RelevantLabels(int32_t config) {
    return trans_->RelevantLabels(config, &stats_.configs_interned);
  }

 private:
  using StateId = automata::StateId;
  using ConfigId = int32_t;
  using Config = TransitionPlane::Config;

  // Reusable per-depth scratch for the traversal.
  struct Frame {
    ConfigId config = -1;
    int32_t aux = -1;         // edge data into this node (fold pairs etc.)
    std::vector<char> fvals;  // aligned with config freq
    // The node's cans vertices: `vcount` contiguous ids starting at `vbase`,
    // aligned with the config's mstates. Only nodes whose vertices can be
    // deleted or can carry answers (annotated / final configs) materialize
    // vertices; barren in-region nodes are pass-through (vcount 0), and
    // eff_aux/eff_vbase address the nearest materialized ancestor with the
    // composed edge mapping (path compression over non-deletable vertices).
    CansGraph::VertexId vbase = 0;
    int32_t vcount = 0;
    CansGraph::VertexId eff_vbase = 0;
    int32_t eff_aux = -1;  // -1: no incoming cans edges to wire
    bool entered_in_region = false;  // region status inherited from the parent
    bool region = false;             // after possibly opening one here
    CansGraph::Mark cans_mark;       // taken when a region opens here
  };
  Frame& FrameAt(int depth) {
    if (static_cast<size_t>(depth) < frames_.size()) return *frames_[depth];
    return GrowFrames(depth);
  }
  Frame& GrowFrames(int depth);

  void EnterNode();  // node prologue for the frame at depth_

  /// Engine-local cache in front of the plane's aux-composition memo: the
  /// plane side takes a shared lock per lookup, and this runs once per
  /// barren pass-through node inside every cans region -- a hot path on
  /// filter-heavy documents. Aux ids are plane-global and immutable, so
  /// caching them engine-side is free of coherence concerns.
  int32_t ComposeAuxCached(int32_t a, int32_t b) {
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
                   static_cast<uint32_t>(b);
    auto it = compose_memo_.find(key);
    if (it != compose_memo_.end()) return it->second;
    int32_t id = trans_->ComposeAux(a, b);
    compose_memo_.emplace(key, id);
    return id;
  }

  const xml::Tree& tree_;
  const automata::Mfa& mfa_;
  std::shared_ptr<TransitionPlane> trans_;
  const xml::DocPlane* doc_plane_;
  EvalStats stats_;

  // Per-run state: the cans records of the open region, and the answers of
  // the run so far (direct ones and those of collected regions, unsorted).
  CansGraph cans_;
  std::vector<xml::NodeId> answers_;
  int depth_ = -1;

  // Scratch (per-depth frames; epoch-marked deleted-state array for the pop
  // path). 64-bit epoch: a persistent server engine bumps it once per node
  // pop, which would wrap 32 bits within hours of load.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<int64_t> nfa_deleted_mark_;
  int64_t nfa_deleted_epoch_ = 0;
  std::vector<uint64_t> answer_bits_;  // TakeAnswers bitmap-sort scratch
  std::unordered_map<uint64_t, int32_t> compose_memo_;  // see ComposeAuxCached
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_ENGINE_H_
