// Batched multi-query HyPE: evaluate N MFAs over one tree in a SINGLE shared
// depth-first pass.
//
// A view server answering many queries against the same materialized view
// pays one full HyPE pass per query; the traversal (node decoding, child
// iteration, subtree-label-index lookups) is repeated N times even though it
// is query-independent. BatchHypeEvaluator keeps one HypeEngine per query
// and walks the tree once for all of them.
//
// The sharing goes beyond the walk: the driver interns the TUPLE of
// per-engine configurations occupied at a node -- a joint state -- and
// memoizes joint transitions per (joint state, label[, subtree label set]),
// the determinization idea HyPE already applies per query (Green et al.),
// lifted across the batch. One packed table entry then advances every query
// at once and tells the driver:
//   - whether EVERY engine prunes the child (skip the whole subtree);
//   - which engines descend with frames (filters pending / inside a cans
//     region): they run their normal per-node prologue/epilogue -- the rare
//     case, held in a side table the action-free hot path never touches;
//   - which engines are in a "simple" state (no AFA requests, nothing
//     annotated): they ride the joint table framelessly with NO per-node
//     work -- their answers (final states) and visit statistics are
//     recovered from the joint states themselves. An action-free LEAF child
//     is entered and accounted without a frame push/pop at all.
//
// Each engine's per-query derived state (configurations, transition tables)
// lives in its hype::TransitionPlane; hand the evaluator a
// TransitionPlaneStore to share those planes with other evaluators of the
// same queries (shard workers, the probe pass, later service batches) --
// see transition_plane.h. The joint tables themselves are evaluator-local
// (they index the batch's engine slots).
//
// The walk itself iterates a columnar xml::DocPlane (preorder arrays with
// subtree extents, see the design note in xml/doc_plane.h): descending is a
// cursor read, skipping a pruned subtree a cursor addition. On top of the
// plane the driver gains a JUMP MODE (no-index passes only): a joint state
// whose members are ALL frameless and final-free derives, once, the union of
// its members' relevant labels (HypeEngine::RelevantLabels -- labels whose
// transition leaves the member's configuration). Every other position is
// TRANSPARENT for the whole batch: each member self-loops through it, so the
// joint state -- and therefore every joint decision -- is unchanged, no
// answer is emitted, and nothing prunes. The driver therefore lower_bounds
// the posting lists of the relevant labels and leaps straight to the next
// candidate position inside the frame's extent; because the joint state at
// the candidate's (transparent) parent provably equals the frame's state,
// the candidate is entered through the ordinary memoized joint edge, and no
// ancestor replay is needed at all -- frameless engines keep no frames to
// reconstruct. Skipped positions are accounted to the state's `jumped`
// counter and folded into the members' visit statistics exactly like
// `visits`, keeping per-engine statistics bit-identical to solo runs (the
// randomized suite in tests/doc_plane_test.cc pins jump ≡ full-DFS ≡ solo).
//
// This is the only HyPE traversal driver: the solo HypeEvaluator (hype.h)
// is a one-slot batch. Per-query answers and statistics are identical to
// evaluating each query alone by construction; the randomized equivalence
// suite (tests/batch_hype_test.cc) enforces this across batch sizes and
// index modes, and against the naive evaluator.
//
// The evaluator is reusable: repeated EvalAll calls keep the joint tables
// and each engine's transition plane warm.

#ifndef SMOQE_HYPE_BATCH_HYPE_H_
#define SMOQE_HYPE_BATCH_HYPE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "automata/mfa.h"
#include "common/cancellation.h"
#include "hype/engine.h"
#include "hype/index.h"
#include "hype/transition_plane.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::hype {

/// How a HyPE evaluator runs. One option set for every evaluator front
/// end: HypeEvaluator, BatchHypeEvaluator, and exec::ShardedOptions, which
/// extends it.
struct EvalOptions {
  /// Index-based pruning (OptHyPE / OptHyPE-C, depending on how the index
  /// was built) for every query; the per-node index lookup is shared across
  /// the batch. Must have been built for the same tree.
  const SubtreeLabelIndex* index = nullptr;

  /// Columnar plane of the same tree (borrowed, shared read-only). The
  /// evaluator builds and owns one when null; callers that hold many
  /// evaluators over one tree pass a shared plane to avoid an O(N) rebuild
  /// per evaluator.
  const xml::DocPlane* plane = nullptr;

  /// Shared registry of per-query transition planes (see
  /// transition_plane.h), created for the same tree and index. Null = each
  /// engine interns into a private plane. A store shares the planes with
  /// every other evaluator of the same queries (shard workers, later
  /// batches), and TransitionPlaneStore::For(mfa, compiled) seeds a plane
  /// with an already-built CSR mirror.
  TransitionPlaneStore* plane_store = nullptr;

  /// Allows the joint driver's jump mode (see the design note above). Off
  /// forces the full columnar DFS -- equivalence tests and the bench
  /// baselines use this; answers and per-engine statistics are identical
  /// either way.
  bool enable_jump = true;
};

/// Statistics of one shared pass (driver-side, per walk not per engine).
struct SharedPassStats {
  int64_t nodes_walked = 0;     // element nodes the shared walk entered
  int64_t subtrees_skipped = 0; // children pruned by every live engine
  int64_t positions_jumped = 0; // transparent positions skipped by jump mode
};

class BatchHypeEvaluator {
 public:
  /// The MFAs must outlive the evaluator. They may repeat (each slot still
  /// gets its own engine; with a plane store, repeated slots share one
  /// transition plane).
  BatchHypeEvaluator(const xml::Tree& tree,
                     std::vector<const automata::Mfa*> mfas,
                     EvalOptions options = {});

  /// Evaluates every MFA at `context` in one shared pass; result i is the
  /// sorted answer set of mfas[i] (== HypeEvaluator(tree, *mfas[i]).Eval).
  ///
  /// `gate` (optional, here and in EvalSubtree) is polled once per walk step;
  /// when it trips, the pass aborts within one checkpoint interval of node
  /// entries and returns all-empty answers with `gate->tripped()` set. The
  /// evaluator stays reusable (joint tables stay warm, the next pass resets
  /// every engine), but the aborted call's answers/statistics are garbage by
  /// contract and must be discarded.
  std::vector<std::vector<xml::NodeId>> EvalAll(xml::NodeId context,
                                                EvalGate* gate = nullptr);

  /// Shard entry point: evaluates every MFA over the subtree rooted at `top`
  /// only, with each engine entering `top` in the configuration its solo
  /// pass from `context` would hold there (the memoized transition chain
  /// along the context→top path; engines dead anywhere on the path
  /// contribute no answers, exactly like the solo prune).
  ///
  /// Result i is the solo answer set of mfas[i] RESTRICTED to the subtree of
  /// `top` -- provided every configuration on the path strictly above `top`
  /// is "simple" for that engine (no pending AFA requests, nothing
  /// annotated), so no filter truth or cans connectivity crosses the subtree
  /// boundary. Callers (exec::ShardedBatchEvaluator) must check this via the
  /// engine hooks and route non-simple queries to a whole-tree pass; answers
  /// AT path nodes above `top` are likewise the caller's to emit.
  /// EvalSubtree(c, c) == EvalAll(c).
  std::vector<std::vector<xml::NodeId>> EvalSubtree(xml::NodeId context,
                                                    xml::NodeId top,
                                                    EvalGate* gate = nullptr);

  size_t batch_size() const { return engines_.size(); }

  /// Per-query statistics of the last EvalAll (identical to what the solo
  /// evaluator would report; configs_interned attributes shared-plane
  /// insertions, see engine.h).
  const EvalStats& stats(size_t i) const { return engines_[i]->stats(); }

  /// Shared-walk statistics of the last EvalAll. nodes_walked counts element
  /// nodes entered once by the shared pass -- the per-query passes would
  /// have entered sum_i stats(i).elements_visited nodes in total.
  const SharedPassStats& pass_stats() const { return pass_stats_; }

  /// Joint states interned so far (sharing diagnostics).
  size_t num_joint_states() const { return states_.size(); }

 private:
  using SuccRef = HypeEngine::SuccRef;

  struct Member {
    uint32_t engine;
    int32_t config;
    bool framed;  // monotone along a path: set at the first non-simple config
  };
  // A memoized joint transition is PACKED into one int64: the target joint
  // state (high half; -1 = every engine prunes) and an index into the
  // actions_ side table (low half; -1 = no per-engine frame work -- the
  // common navigation case decodes one table entry and touches nothing
  // else).
  struct JointAction {
    std::vector<std::pair<uint32_t, SuccRef>> descend;  // framed at parent
    std::vector<std::pair<uint32_t, int32_t>> begin;    // newly framed
  };
  static constexpr int64_t kEdgeUnset = INT64_MIN;
  static int64_t PackEdge(int32_t next, int32_t action) {
    return static_cast<int64_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(next)) << 32) |
        static_cast<uint32_t>(action));
  }
  static int32_t EdgeNext(int64_t packed) {
    return static_cast<int32_t>(static_cast<uint64_t>(packed) >> 32);
  }
  static int32_t EdgeAction(int64_t packed) {
    return static_cast<int32_t>(static_cast<uint64_t>(packed) & 0xFFFFFFFFu);
  }

  struct JointState {
    std::vector<Member> members;
    std::vector<uint32_t> framed;            // engines to ExitNode at pop
    std::vector<uint32_t> frameless_finals;  // engines emitting `node` direct
    int64_t visits = 0;                      // this pass; distributed after
    int64_t jumped = 0;  // transparent positions skipped under this state
    // Joint transition memo, mirroring the per-engine tables: one packed
    // slot per tree label, or per (label, subtree-label-set) with an index.
    std::vector<int64_t> edges;
    std::vector<std::vector<std::pair<int32_t, int64_t>>> edges_by_eff;
    // Jump plan (no-index passes): jumpable iff every member is frameless
    // and final-free; `jump_labels` is then the sorted union of the
    // members' relevant labels. Derived lazily at first frame use.
    bool jump_ready = false;
    bool jumpable = false;
    std::vector<LabelId> jump_labels;
  };

  struct WalkFrame {
    int32_t pos;     // plane position of this node
    int32_t end;     // one past the last descendant position
    int32_t cursor;  // next position to consider inside (pos, end)
    int32_t eff_set;
    int32_t joint;
    JointState* st;  // states_[joint], cached for the per-child hot path
    bool jump;       // posting-driven scan for this frame
  };

  int32_t InternState(std::vector<Member> members);
  int64_t EdgeFor(JointState& st, int32_t state, LabelId label,
                  int32_t eff_set);
  int64_t ComputeEdge(int32_t state, LabelId label, int32_t eff_set);
  bool JumpPlanFor(int32_t state);
  void RunJointPass(int32_t top_pos, int32_t top_eff, int32_t root_state,
                    EvalGate* gate);

  const xml::Tree& tree_;
  EvalOptions options_;  // plane always set
  xml::DocPlane plane_owned_;  // empty when options.plane was provided
  std::vector<std::unique_ptr<HypeEngine>> engines_;
  SharedPassStats pass_stats_;

  std::vector<std::unique_ptr<JointState>> states_;
  std::unordered_map<uint64_t, std::vector<int32_t>> state_buckets_;
  std::vector<JointAction> actions_;
  std::vector<WalkFrame> walk_stack_;      // reused across EvalAll calls
  std::vector<int32_t> touched_states_;    // states entered by the current pass
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_BATCH_HYPE_H_
