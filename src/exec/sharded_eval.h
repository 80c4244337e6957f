// Sharded multi-query evaluation: one logical shared pass, executed as
// independent subtree walks -- on the calling thread while the work is
// small, on thread-pool helpers once it pays for them.
//
// HyPE's evaluation state is deliberately small and node-local (per-node
// configurations, a cans DAG confined to filter regions), so the document
// decomposes: partition the tree into subtree UNITS (top-level subtrees,
// recursively split while more parallelism is needed), give every
// participant thread its own HypeEngine per query -- cans graph, frames, and
// epoch scratch all thread-local -- and walk the units via
// BatchHypeEvaluator::EvalSubtree. The per-QUERY derived state (the
// hash-consed configuration store and memoized transition tables) is NOT
// per participant: all engines of one query read a single shared
// hype::TransitionPlane (concurrently-readable, see transition_plane.h), so
// each configuration is interned once per query instead of once per thread
// and repeated batches start warm. EvalAll returns bit-identical answers to
// one whole-tree BatchHypeEvaluator pass (and so to HypeEvaluator, its
// one-slot form).
//
// Soundness of the decomposition requires that no evaluation state cross a
// unit boundary: every configuration a query holds on the SPINE (the context
// node plus interior nodes whose children were split into units) must be
// "simple" -- no pending AFA truth values to fold upward, no cans region
// open. A probe pass checks exactly that per query; queries that fail (e.g.
// a filter predicated on the context itself) are routed to a whole-tree
// fallback BatchHypeEvaluator, run as one more job. Answers at spine nodes
// themselves are emitted centrally by the probe.
//
// Execution is INLINE-FIRST. The jobs of a run are the units in ascending
// weight (plane elements x engines) followed by the fallback, the heaviest
// job. The calling thread claims jobs from the light end itself and, after
// each one, extrapolates its measured engine-node visits per weight over
// the weight still unclaimed (before the first job, that job's weight is
// the prediction: it bounds the job's visits). While that prediction stays
// within a fixed budget of visits, a pool fan-out (waking helpers, joining
// futures) would cost more than it saves, so the caller keeps going: a
// small batch never leaves the calling thread. Once the prediction passes
// the budget, the caller HANDS OFF every remaining job to pool helpers (one
// per remaining job, up to the pool width) -- they claim dynamically from
// the heavy end, so the fallback starts first -- and blocks on their
// futures instead of claiming more itself (a caller that keeps spinning
// shares its CPU with the helpers it just woke). The decision reads counts
// only, never a clock, so which path a batch takes is deterministic.
// Helper evaluators are built lazily, at the first fan-out.
//
// Each unit's answers land in that unit's own slot and are merged in unit
// (document) order after every participant has joined, so the merge never
// depends on which thread ran which unit, or on whether the run fanned out.
//
// The evaluator is reusable: repeated EvalAll calls on the same context keep
// every participant's transition tables warm (the QueryService caches one
// per recent MFA set; the throughput bench reuses one across iterations).

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

/// The evaluation options (index, plane, plane_store, enable_jump; see
/// hype::EvalOptions) are shared, immutable, and read concurrently by every
/// participant. The plan partitions on the plane's extents (O(1) subtree
/// sizing instead of an O(N) weight pre-pass). Without a plane store the
/// evaluator creates one, so its probes, participants, and the fallback
/// still intern each configuration once in total instead of once per
/// participant; the service passes its own so successive batches start
/// warm. Jump mode applies inside every unit walk and the fallback.
struct ShardedOptions : hype::EvalOptions {
  /// Pool the helpers of a fan-out run on. Null runs every job inline on
  /// the calling thread (useful as a zero-dependency fallback and in tests).
  /// An EvalAll called FROM a thread of this pool also runs inline --
  /// blocking that worker on helper futures could deadlock the pool, so the
  /// caller gets correct answers without parallelism instead.
  common::ThreadPool* pool = nullptr;

  /// Unit-split target: the plan splits the heaviest unit into its
  /// children until it holds at least this many units (or nothing is left
  /// to split). 0 = twice the pool width (2 without a pool), slack for the
  /// helpers' dynamic claiming to smooth unit imbalance.
  int num_shards = 0;
};

struct ShardedStats {
  /// Shared-walk totals summed over every job and the spine. After an
  /// abort: the walk each participant did before it stopped.
  hype::SharedPassStats pass;
  int num_units = 0;    // subtree units in the current plan
  // Participants that ran the last EvalAll: 1 when the caller evaluated
  // every job inline, 1 + the helpers after a fan-out, 0 with no job.
  int num_groups = 0;
  int num_sharded_queries = 0;   // queries served by the sharded path
  int num_fallback_queries = 0;  // non-shardable, whole-tree pass
  int num_dead_queries = 0;      // dead at the context: answered empty
};

class ShardedBatchEvaluator {
 public:
  /// Predicted engine-node visits (EvalStats::elements_visited summed over
  /// a job's engines) for the unclaimed jobs above which the caller hands
  /// them to pool helpers instead of evaluating them inline. Sized from the
  /// serving benchmark on a 4-vCPU VM. A tenant_cold role group (~300
  /// visits) took 0.12 ms fanned out over 8 pool tasks and 0.022 ms inline:
  /// a hand-off costs ~0.1 ms, the price of ~1,300 visits of inline
  /// traversal at the ~70 ns per visit measured there. Heavy passes also
  /// ran faster on a pool thread, whose malloc arena held only evaluation
  /// state: a whole-tree fallback pass of ~13,000 visits took a median
  /// 4.0 ms inline on the service's then single dispatcher, whose arena
  /// also held every compiled query, and 3.2 ms on a pool thread (4.2 ms
  /// there too once all threads share one arena). 2^12 visits (~0.3 ms
  /// inline) keeps such passes off the caller; 2^14 kept them inline and
  /// raised tenant_cold's p99 read latency by 12-23%. (The service now
  /// attaches the pool only to a batch alone on an idle service; under load
  /// every batch runs inline on its own dispatcher, so the budget governs
  /// the low-load path.) An engine visits each
  /// element at most once, so a run whose elements x queries stay within
  /// the budget is always inline.
  static constexpr int64_t kFanOutBudget = int64_t{1} << 12;

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

  /// Abortable EvalAll. Every participant polls `control` through its own
  /// EvalGate; the FIRST failure (caller cancellation, expired deadline, or
  /// an injected unit fault) cancels the shared token, so the other
  /// participants abort within one checkpoint interval instead of finishing
  /// their jobs. On abort the call returns all-empty answers,
  /// `last_status()` holds the first failure, and the evaluator (workers,
  /// plan, planes) stays fully reusable -- the next EvalAll starts clean and
  /// warm.
  std::vector<std::vector<xml::NodeId>> EvalAll(xml::NodeId context,
                                                const EvalControl& control);

  /// kOk after a completed EvalAll; the first participant failure after an
  /// abort.
  const Status& last_status() const { return last_status_; }

  size_t batch_size() const { return mfas_.size(); }
  const ShardedStats& stats() const { return stats_; }

  /// Merged per-query run statistics of the last EvalAll: traversal-work
  /// counters (elements visited, cans sizes, AFA requests) are summed over
  /// the query's unit walks and spine visits and match the solo totals;
  /// configs_interned sums the shared-plane insertions attributed to the
  /// query's worker engines -- each configuration is interned once in the
  /// query's shared TransitionPlane, not once per participant, and a warm
  /// start interns nothing.
  const hype::EvalStats& merged_stats(size_t i) const {
    return merged_stats_[i];
  }

 private:
  // The decomposition for one context: spine nodes (context + split
  // interiors) and subtree units in document order.
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
  };
  // One claimable piece of a run: a unit walk, or the whole-tree fallback.
  struct Job {
    int unit;        // index into plan_.units; -1 = the fallback
    int64_t weight;  // plane elements x engines the job walks
  };

  void BuildPlan(xml::NodeId context);
  void ProbeQueries();
  void EnsureWorkers(size_t count);
  std::vector<std::vector<xml::NodeId>> EvalAllImpl(xml::NodeId context,
                                                    const EvalControl* control);

  const xml::Tree& tree_;
  std::vector<const automata::Mfa*> mfas_;
  ShardedOptions options_;  // plane and plane_store always set
  xml::DocPlane plane_owned_;  // empty when options.plane was provided
  // Null when options.plane_store was provided.
  std::unique_ptr<hype::TransitionPlaneStore> store_owned_;

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
  // Units ascending by weight (ties in document order), then the fallback.
  std::vector<Job> jobs_;

  // One whole-tree evaluator over the shardable queries per participant
  // (workers_[0] is the caller's; helpers' are added at the first fan-out
  // that needs them), plus the fallback for the rest. Each is touched by
  // exactly one thread per run.
  std::vector<std::unique_ptr<hype::BatchHypeEvaluator>> workers_;
  std::unique_ptr<hype::BatchHypeEvaluator> fallback_;

  ShardedStats stats_;
  std::vector<hype::EvalStats> merged_stats_;
  Status last_status_;
  // First-failure fan-out when the caller's control carries no token of its
  // own: participant gates cancel this one so the others still stop early.
  CancelToken internal_token_;
};

}  // namespace smoqe::exec

#endif  // SMOQE_EXEC_SHARDED_EVAL_H_
