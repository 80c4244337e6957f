// Sharded multi-query evaluation: one logical shared pass, executed as
// independent subtree walks on thread-pool workers.
//
// HyPE's evaluation state is deliberately small and node-local (per-node
// configurations, a cans DAG confined to filter regions), so the document
// decomposes: partition the tree into subtree UNITS (top-level subtrees,
// recursively split while more parallelism is needed), give every shard its
// own HypeEngine per query -- cans graph, frames, and epoch scratch all
// shard-local -- and walk the units concurrently via
// BatchHypeEvaluator::EvalSubtree. The per-QUERY derived state (the
// hash-consed configuration store and memoized transition tables) is NOT
// per shard: all shard engines of one query read a single shared
// hype::TransitionPlane (concurrently-readable, see transition_plane.h), so
// each configuration is interned once per query instead of once per shard
// and repeated batches start warm.
// Per-shard answers are merged deterministically (units are kept in document
// order; the merge never depends on thread scheduling), so EvalAll returns
// bit-identical answers to one whole-tree BatchHypeEvaluator pass (and so to
// HypeEvaluator, its one-slot form).
//
// Soundness of the decomposition requires that no evaluation state cross a
// unit boundary: every configuration a query holds on the SPINE (the context
// node plus interior nodes whose children were split into units) must be
// "simple" -- no pending AFA truth values to fold upward, no cans region
// open. A probe pass checks exactly that per query; queries that fail (e.g.
// a filter predicated on the context itself) are routed to a whole-tree
// fallback BatchHypeEvaluator, which runs as one more pool task. Answers at
// spine nodes themselves are emitted centrally by the probe.
//
// The evaluator is reusable: repeated EvalAll calls on the same context keep
// every shard's transition tables warm (the QueryService builds one per
// admission batch; the throughput bench reuses one across iterations).

#ifndef SMOQE_EXEC_SHARDED_EVAL_H_
#define SMOQE_EXEC_SHARDED_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "automata/mfa.h"
#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "hype/batch_hype.h"
#include "hype/engine.h"
#include "hype/index.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::exec {

struct ShardedOptions {
  /// Index-based pruning for every query (shared, immutable, read
  /// concurrently by all shards). Must have been built for the same tree.
  const hype::SubtreeLabelIndex* index = nullptr;

  /// Columnar plane of the served tree (shared, immutable, read
  /// concurrently by all shards). Built and owned by the evaluator when
  /// null. The plan partitions on its extents (O(1) subtree sizing instead
  /// of an O(N) weight pre-pass) and every shard walks it.
  const xml::DocPlane* plane = nullptr;

  /// Pool the shard walks run on. Null runs every shard inline on the
  /// calling thread (useful as a zero-dependency fallback and in tests).
  /// An EvalAll called FROM a thread of this pool also runs inline --
  /// blocking that worker on shard futures could deadlock the pool, so the
  /// caller gets correct answers without parallelism instead.
  common::ThreadPool* pool = nullptr;

  /// Shared registry of per-query transition planes (see
  /// transition_plane.h), created for the same tree and index. The service
  /// passes its own so successive batches start warm; when null the
  /// evaluator creates one, so its probes, shard workers, and the fallback
  /// still intern each configuration once in total instead of once per
  /// shard.
  hype::TransitionPlaneStore* plane_store = nullptr;

  /// Shard-group target. 0 = twice the pool width (slack so the greedy
  /// contiguous partition and work stealing can smooth unit imbalance).
  int num_shards = 0;

  /// Label-skipping jump mode inside every shard walk (and the fallback);
  /// see hype/batch_hype.h. Off reproduces the pre-plane behavior.
  bool enable_jump = true;
};

struct ShardedStats {
  /// Shared-walk totals summed over all shard passes and the fallback.
  hype::SharedPassStats pass;
  int num_units = 0;    // subtree units in the current plan
  int num_groups = 0;   // shard groups (= concurrent walk tasks)
  int num_sharded_queries = 0;   // queries served by the sharded path
  int num_fallback_queries = 0;  // non-shardable, whole-tree pass
  int num_dead_queries = 0;      // dead at the context: answered empty
};

class ShardedBatchEvaluator {
 public:
  /// The MFAs must outlive the evaluator; so must `tree`, the index, the
  /// plane and the pool. The index is keyed by plane position, so it must
  /// have been built from a plane of `tree` (every such plane, built or
  /// maintained, addresses the same positions).
  ShardedBatchEvaluator(const xml::Tree& tree,
                        std::vector<const automata::Mfa*> mfas,
                        ShardedOptions options = {});
  ~ShardedBatchEvaluator();

  /// Evaluates every MFA at `context`; result i is the sorted answer set of
  /// mfas[i], bit-identical to BatchHypeEvaluator::EvalAll (and hence to
  /// solo HypeEvaluator::Eval).
  std::vector<std::vector<xml::NodeId>> EvalAll(xml::NodeId context);

  /// Abortable EvalAll. Every shard task polls `control` through its own
  /// EvalGate; the FIRST failure (caller cancellation, expired deadline, or
  /// an injected shard fault) cancels the shared token, so sibling shards
  /// abort within one checkpoint interval instead of finishing their units.
  /// On abort the call returns all-empty answers, `last_status()` holds the
  /// first failure, and the evaluator (workers, plan, planes) stays fully
  /// reusable -- the next EvalAll starts clean and warm.
  std::vector<std::vector<xml::NodeId>> EvalAll(xml::NodeId context,
                                                const EvalControl& control);

  /// kOk after a completed EvalAll; the first shard failure after an abort.
  const Status& last_status() const { return last_status_; }

  size_t batch_size() const { return mfas_.size(); }
  const ShardedStats& stats() const { return stats_; }

  /// Merged per-query run statistics of the last EvalAll: traversal-work
  /// counters (elements visited, cans sizes, AFA requests) are summed over
  /// the query's shard engines and spine visits and match the solo totals;
  /// configs_interned sums the shared-plane insertions attributed to the
  /// query's worker engines -- each configuration is interned once in the
  /// query's shared TransitionPlane, not once per shard, and a warm start
  /// interns nothing.
  const hype::EvalStats& merged_stats(size_t i) const {
    return merged_stats_[i];
  }

 private:
  // The decomposition for one context: spine nodes (context + split
  // interiors) and subtree units in document order, grouped contiguously.
  struct SpineNode {
    xml::NodeId node;
    int32_t pos;  // plane position of `node`
    int parent;   // index into spine; -1 for the context
    int32_t eff;  // effective label set (0 without an index)
  };
  struct Unit {
    xml::NodeId root;
    int32_t pos;     // plane position of `root`
    int64_t weight;  // element count of the subtree (plane extent + 1)
    int spine;       // index of the nearest spine ancestor
  };
  struct Plan {
    xml::NodeId context = xml::kNullNode;
    std::vector<SpineNode> spine;
    std::vector<Unit> units;
    std::vector<std::pair<int, int>> groups;  // [begin, end) into units
  };

  void BuildPlan(xml::NodeId context);
  void ProbeQueries();
  void EnsureWorkers();
  std::vector<std::vector<xml::NodeId>> EvalAllImpl(xml::NodeId context,
                                                    const EvalControl* control);

  const xml::Tree& tree_;
  std::vector<const automata::Mfa*> mfas_;
  ShardedOptions options_;
  xml::DocPlane plane_owned_;  // empty when options.plane was provided
  const xml::DocPlane* plane_;
  // Null when options.plane_store was provided.
  std::unique_ptr<hype::TransitionPlaneStore> store_owned_;
  hype::TransitionPlaneStore* store_;

  // Each query's shared transition plane, probed to compute the spine
  // configurations, decide shardability, and emit spine-node answers.
  // Probes run only on the EvalAll caller thread.
  std::vector<std::shared_ptr<hype::TransitionPlane>> probes_;

  Plan plan_;
  // Probe results for plan_.context (stable across calls, so workers and
  // the fallback evaluator are reused while the context stays the same).
  std::vector<uint32_t> sharded_queries_;
  std::vector<uint32_t> fallback_queries_;
  std::vector<std::vector<xml::NodeId>> spine_answers_;  // per query
  std::vector<int64_t> spine_visits_;  // live spine nodes, per query

  // One whole-tree evaluator per shard group over the shardable queries,
  // plus the fallback for the rest. Each is touched by exactly one task.
  std::vector<std::unique_ptr<hype::BatchHypeEvaluator>> workers_;
  std::unique_ptr<hype::BatchHypeEvaluator> fallback_;

  ShardedStats stats_;
  std::vector<hype::EvalStats> merged_stats_;
  Status last_status_;
  // First-failure fan-out when the caller's control carries no token of its
  // own: shard gates cancel this one so siblings still stop early.
  CancelToken internal_token_;
};

}  // namespace smoqe::exec

#endif  // SMOQE_EXEC_SHARDED_EVAL_H_
