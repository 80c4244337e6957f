// QueryService: the concurrent front-end of the serving spine.
//
// One service owns a loaded document, the query → MFA compilation cache
// (rewrite::RewriteCache -- view-rewriting or plain mode), the per-query
// transition-plane store (hype::TransitionPlaneStore -- compiled evaluation
// state shared across batches and shards), and the thread pool. Any number
// of client threads Submit query text and get a future; internally a set of
// DISPATCHER threads, one per pool thread, coalesce submissions into
// ADMISSION BATCHES. The dispatcher that closes a batch also evaluates it:
// it compiles the batch through the cache (duplicate texts in a batch are
// evaluated once and fanned out) and runs it as one sharded shared pass
// (exec::ShardedBatchEvaluator). Batches from different clients -- and so
// different role groups -- evaluate concurrently on different dispatchers.
// Answers are bit-identical to a solo HypeEvaluator run of each query,
// enforced by the randomized multi-client stress suite
// (tests/exec_service_test.cc).
//
// Admission is WORK-CONSERVING: as soon as a dispatcher is free it closes a
// batch with whatever is pending (up to `max_batch`), so an idle service
// never holds a lone query back. Batching happens under load -- queries
// that arrive while every dispatcher is busy form the next batch.
//
// Two rules keep low load cheap and tail latency flat:
//  * WAKE RULE. An event that brings work (a Submit, an Apply, a batch
//    closed with work still pending) wakes at most one parked dispatcher,
//    and only when no dispatcher is free -- awake and not evaluating,
//    counting one already woken. A burst from one client therefore lands
//    on the dispatcher that is already awake instead of paying a wake-up
//    per query. The most recently parked dispatcher is woken first, so a
//    service serving one query at a time stays on one warm thread.
//  * FAN-OUT GATE. A batch may hand work to the pool only when it is the
//    service's only batch in flight and nothing is pending; otherwise it
//    runs inline on its dispatcher. Concurrent batches whose helpers queued
//    behind each other in the pool would stretch every one of them, and
//    inline batches never build helper evaluators.
//
// Multi-tenant mode (QueryServiceOptions::catalog): a Submit carrying a
// policy::RoleId compiles through the role's catalog partition and is
// evaluated only alongside same-role queries -- per-role rewrite caches and
// transition planes mean no role ever observes (or warms) another's compiled
// state. See policy/role_catalog.h.
//
// Threading model: clients touch only the pending queues (`mu_`); a
// dispatcher holds `mu_` only to collect a batch or the pending writes and
// to park, each on its own condition variable. The service-level
// RewriteCache is not thread-safe and sits behind its own
// mutex; the catalog and the plane stores are thread-safe. Sharded
// evaluators are CHECKED OUT of the evaluator cache for one evaluation
// round, so no two dispatchers ever drive the same one. A durable write is
// exclusive: it starts only when no batch is in flight, and no batch starts
// while a write is pending, so the tree/plane/plane-store swap never races
// an evaluation. Shutdown drains: every query submitted before the
// destructor runs is answered.

#ifndef SMOQE_EXEC_QUERY_SERVICE_H_
#define SMOQE_EXEC_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "hype/index.h"
#include "hype/transition_plane.h"
#include "policy/role_catalog.h"
#include "rewrite/rewrite_cache.h"
#include "storage/durable_epoch.h"
#include "view/view_def.h"
#include "xml/doc_plane.h"
#include "xml/plane_epoch.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"

namespace smoqe::exec {

struct QueryServiceOptions {
  /// Non-null: queries are posed against the view and rewritten to source
  /// MFAs (Section 5); null: queries compile directly against the document.
  const view::ViewDef* view = nullptr;

  /// Optional subtree-label index over the served document (OptHyPE
  /// pruning, shared read-only across all shards).
  const hype::SubtreeLabelIndex* index = nullptr;

  /// Multi-tenant mode: a role catalog over the served document. A Submit
  /// carrying a role is compiled through the role's catalog partition --
  /// the (role, query)-keyed rewriting and the role-private transition
  /// planes -- and evaluated only alongside same-role queries; a Submit
  /// without a role uses the service-level `view`/cache exactly as before.
  /// The catalog (and its policy/tree/index) must outlive the service, and
  /// must be built over the same tree and index the service serves.
  policy::RoleCatalog* catalog = nullptr;

  /// Optional columnar plane of the served document; the service builds and
  /// owns one when null (one O(N) pass at construction, shared by every
  /// evaluator it ever creates).
  const xml::DocPlane* plane = nullptr;

  /// Evaluation pool width, which is also the number of dispatcher
  /// threads; 0 = hardware concurrency.
  int num_threads = 0;

  /// A batch holds at most this many queries (0 is clamped to 1).
  size_t max_batch = 16;

  /// RewriteCache capacity (compiled MFAs kept hot), 0 = unbounded.
  size_t cache_capacity = 1024;

  /// Admission control: Submit sheds with kResourceExhausted once this many
  /// queries are already pending (overload protection for the wire-protocol
  /// front end -- queueing unboundedly just converts overload into latency).
  /// 0 = unbounded (the pre-admission-control behavior).
  size_t max_queue = 4096;

  /// Age-based shedding: a query that waited in the pending queue longer
  /// than this by the time its batch is collected resolves with
  /// kResourceExhausted instead of being evaluated (stale work under
  /// overload). 0 = disabled.
  std::chrono::microseconds max_queue_age{0};

  /// Node entries between cancellation/deadline checks inside the
  /// evaluation drivers (see common/cancellation.h); bounds how late an
  /// abort can land.
  int32_t checkpoint_interval = 1024;

  /// Non-empty: the service is DURABLE -- construct it with
  /// QueryService::Open, which recovers (or initializes) a
  /// storage::DurableEpochStore in this directory and serves the recovered
  /// epoch. Apply() then WAL-logs and fsyncs every delta before it
  /// publishes (storage/wal.h design note). A durable service owns its
  /// document, so `index`, `catalog`, and `plane` -- references into an
  /// externally owned tree -- are rejected by Open.
  std::string storage_dir = {};

  /// Durable mode only: WAL records between snapshot compactions
  /// (storage::StorageOptions::snapshot_every).
  int snapshot_every = 64;
};

/// Per-query submission controls. Default-constructed = the old behavior
/// (no deadline, not cancellable).
struct SubmitOptions {
  /// The query resolves with kDeadlineExceeded once this expires --
  /// including mid-evaluation (the batch aborts and the survivors retry
  /// under their own deadlines).
  Deadline deadline;

  /// Client-owned cancellation token; Cancel() resolves the query with
  /// kCancelled at the service's next checkpoint. Must outlive the future's
  /// resolution.
  CancelToken* cancel = nullptr;

  /// The submitting tenant's role (requires QueryServiceOptions::catalog;
  /// rejected at admission otherwise). The query is answered over the
  /// role's security view; a role whose root is denied answers the empty
  /// node set (not an error) for every well-formed query.
  policy::RoleId role = policy::kNoRole;

  /// Bound on re-evaluation rounds for THIS query inside the batch's
  /// min-deadline retry loop: each time a sibling's deadline/cancellation
  /// aborts the shared pass, the survivors retry (with exponential backoff)
  /// and burn one retry each. Past the bound the query resolves
  /// kUnavailable instead of re-evaluating -- a pathological batch mix can
  /// no longer pin a query on its dispatcher indefinitely. The default
  /// covers the worst case of a default-sized batch (every sibling aborts
  /// once); 0 = never retry.
  int max_retries = 16;
};

/// Counter snapshot returned by QueryService::stats(): submission/answer
/// totals, admission-batch shape (how batches closed: full vs aged out),
/// evaluator-cache reuse, and the RewriteCache hit/miss/eviction counters.
/// bench_parallel prints one per smoke configuration.
struct QueryServiceStats {
  int64_t queries_submitted = 0;
  int64_t queries_answered = 0;  // includes failures
  int64_t queries_failed = 0;    // parse/rewrite errors
  int64_t batches = 0;
  int64_t batches_full = 0;  // admission closed by reaching max_batch
  // Admission closed before reaching max_batch: a free dispatcher took
  // whatever was pending.
  int64_t batches_aged = 0;
  int64_t max_batch_seen = 0;
  // Batches the fan-out gate gave the pool (alone in flight, nothing
  // pending). Whether such a batch actually handed work to helpers is the
  // sharded evaluator's own budget decision.
  int64_t fan_outs = 0;
  // Peak number of batches evaluating at once (at most the dispatcher
  // count).
  int64_t max_active_batches = 0;
  int64_t coalesced_duplicates = 0;  // same-MFA queries evaluated once
  // Role-partition groups served by a warm sharded evaluator (one count
  // per group per batch; every batch is a single group in single-tenant
  // service use, preserving the old per-batch meaning).
  int64_t evaluator_reuses = 0;
  int64_t queries_timed_out = 0;  // resolved kDeadlineExceeded
  int64_t queries_shed = 0;       // resolved kResourceExhausted (admission)
  int64_t queries_cancelled = 0;  // resolved kCancelled (client token)
  int64_t role_queries = 0;       // submissions carrying a role
  int64_t role_groups = 0;        // per-role evaluation groups dispatched
  int64_t role_denied_empty = 0;  // root-hidden roles answered empty
  // Re-evaluation rounds summed over queries: a query that survives an
  // aborted shared pass and re-runs counts one per extra round. Zero in
  // steady state (no deadline/cancel churn inside batches) -- bench_parallel
  // smoke gates on zero growth.
  int64_t queries_retried = 0;
  int64_t retries_exhausted = 0;  // resolved kUnavailable at max_retries
  int64_t writes_applied = 0;     // durable deltas published via Apply()
  rewrite::RewriteCacheStats cache;
};

class QueryService {
 public:
  using Answer = StatusOr<std::vector<xml::NodeId>>;

  /// `tree` (and the view/index, when set) must outlive the service.
  explicit QueryService(const xml::Tree& tree,
                        QueryServiceOptions options = {});

  /// Durable construction (options.storage_dir must be set): opens -- and,
  /// when the directory holds state, RECOVERS -- a DurableEpochStore there
  /// and serves its epoch. `initial` seeds a fresh directory as version 0
  /// and is ignored when state already exists. The service owns the
  /// recovered document, so options carrying references into an external
  /// tree (`index`, `catalog`, `plane`) are rejected.
  static StatusOr<std::unique_ptr<QueryService>> Open(
      xml::Tree initial, QueryServiceOptions options);

  /// Drains and answers everything already submitted, then stops
  /// (delegates to Shutdown()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Stops admission, drains, and joins every dispatcher. Idempotent and
  /// thread-safe: concurrent callers all block until the drain completes.
  /// A Submit racing Shutdown is either admitted into the drain (its
  /// future resolves to the query's answer) or fails fast with a status --
  /// it never hangs on a future no dispatcher will fulfill. Pending writes
  /// are applied before the drain completes. Must not be called from a
  /// Submit callback or a dispatcher.
  void Shutdown();

  /// Thread-safe; callable from any number of client threads. The future
  /// resolves to the sorted answer-node ids, or to the parse/rewrite error.
  /// After Shutdown (or the destructor) has begun, resolves to an error
  /// immediately. Every future resolves with exactly one terminal status:
  /// kOk, the compile error, kDeadlineExceeded, kCancelled,
  /// kResourceExhausted (admission shed), or kUnavailable (transient
  /// evaluation failure; safe to retry).
  std::future<Answer> Submit(std::string query_text,
                             SubmitOptions submit_options = {});

  /// Submit + wait, for single-shot callers.
  Answer Query(std::string query_text);

  /// Durable write (Open-constructed services only): WAL-append + fsync the
  /// delta, publish it as the next epoch, and switch serving to the new
  /// document before returning OK -- queries admitted after Apply returns
  /// evaluate against the new epoch. Thread-safe. A dispatcher applies
  /// writes one at a time, exclusively: once every batch in flight has
  /// finished, and before any batch admitted after the write starts.
  /// kFailedPrecondition for stale deltas (delta.from_version() !=
  /// document_version()), for non-durable services, and after a WAL
  /// failure wedged the store.
  Status Apply(xml::TreeDelta delta);

  /// The served document version: 0 for an in-memory service, the durable
  /// epoch's version otherwise. Thread-safe.
  uint64_t document_version() const;

  /// The underlying durable store (null for in-memory services) -- stats,
  /// recovery report, storage dir. The store's Apply must NOT be called
  /// directly while the service is live; use QueryService::Apply.
  const storage::DurableEpochStore* storage() const { return store_.get(); }

  /// Snapshot of the counters (thread-safe).
  QueryServiceStats stats() const;

  int num_threads() const { return pool_.num_threads(); }

 private:
  struct Pending {
    std::string text;
    std::promise<Answer> promise;
    std::chrono::steady_clock::time_point enqueued;
    Deadline deadline;
    CancelToken* cancel = nullptr;
    policy::RoleId role = policy::kNoRole;
    int max_retries = 16;
  };

  // A durable write waiting for a dispatcher. The promise resolves with
  // the store's verdict once the delta is fsync'd and published (or
  // rejected).
  struct PendingWrite {
    xml::TreeDelta delta;
    std::promise<Status> promise;
  };

  // A recently used sharded evaluator, keyed by its (pointer-sorted) MFA
  // set, its plane universe, and whether the pool is attached. Steady-state
  // traffic repeats query mixes; reusing the evaluator keeps every shard's
  // transition tables warm and skips the per-batch probe/plan work. The
  // entry owns the shared_ptrs so cached MFAs outlive any RewriteCache
  // eviction. A dispatcher checks an entry out for one evaluation round
  // and returns it; eviction skips checked-out entries.
  struct CachedEvaluator;

  // Shared delegating constructor: exactly one of `tree` (borrowed,
  // in-memory mode) or `store` (owned, durable mode) is non-null.
  QueryService(const xml::Tree* tree,
               std::unique_ptr<storage::DurableEpochStore> store,
               QueryServiceOptions options);

  // A dispatcher's parking spot: woken only by name, most recent first.
  struct Parker {
    std::condition_variable cv;
    bool woken = false;  // guarded by mu_
  };

  void DispatcherLoop();
  // Parks the calling dispatcher until a wake or stop (mu_ held).
  void Park(std::unique_lock<std::mutex>& lock, Parker& self);
  // The wake rule (mu_ held): wakes one parked dispatcher iff none is free.
  void WakeOneIfNoneFree();
  // `pooled`: the fan-out gate admitted this batch to the pool.
  void ProcessBatch(std::vector<Pending> batch, bool pooled);
  // Runs with no batch in flight (see the threading model): publishes one
  // durable delta and, on success, swaps serving to the new epoch
  // (tree/plane pointers, fresh plane store, evaluator cache cleared --
  // their universes referenced the old tree).
  Status ApplyWrite(const xml::TreeDelta& delta);
  // Checks out a cached evaluator for the key, building one on a miss.
  // `store` selects the plane universe (the service's own, or a role
  // partition's); `pin` keeps a role partition alive while its evaluator
  // is cached (null for service-level evaluators).
  CachedEvaluator* CheckOutEvaluator(
      std::vector<std::shared_ptr<const automata::Mfa>> sorted_mfas,
      hype::TransitionPlaneStore* store,
      std::shared_ptr<policy::RoleCatalog::Entry> pin, bool pooled,
      bool* reused);
  void ReturnEvaluator(CachedEvaluator* entry);
  // Removes least recently used entries that are not checked out until at
  // most `keep` remain (evaluators_mu_ held); returns them so the caller
  // destroys them after unlocking.
  std::vector<std::unique_ptr<CachedEvaluator>> EvictIdleEvaluators(
      size_t keep);

  QueryServiceOptions options_;
  // Durable mode: the store plus the epoch currently served; `epoch_` pins
  // the tree/plane that `tree_`/`plane_` point into across Apply swaps.
  // Writes are exclusive with batches, so an evaluating dispatcher reads
  // these without a lock.
  std::unique_ptr<storage::DurableEpochStore> store_;
  xml::PlaneEpoch epoch_;
  const xml::Tree* tree_;      // the served document (mode-independent)
  xml::DocPlane plane_owned_;  // in-memory mode, when no options.plane
  const xml::DocPlane* plane_;
  // One interning universe per compiled query for every evaluator this
  // service ever creates: shard engines share planes within a batch, and
  // successive batches (and evaluator-cache rebuilds) start warm. Planes
  // are seeded from the RewriteCache's CompiledMfa mirrors. Rebuilt on
  // every durable epoch swap (planes intern against one tree).
  std::unique_ptr<hype::TransitionPlaneStore> plane_store_;
  common::ThreadPool pool_;

  mutable std::mutex cache_mu_;
  rewrite::RewriteCache cache_;  // guarded by cache_mu_

  std::mutex evaluators_mu_;
  std::vector<std::unique_ptr<CachedEvaluator>> evaluators_;  // LRU, small
  int64_t evaluator_clock_ = 0;

  // Queues, dispatcher bookkeeping, and counters.
  mutable std::mutex mu_;
  std::deque<Pending> pending_;
  std::deque<PendingWrite> writes_;  // drained ahead of query batches
  QueryServiceStats stats_;
  int free_ = 0;  // awake and not evaluating, counting woken ones
  std::vector<Parker*> parked_;  // not yet woken; the last parked on top
  int active_batches_ = 0;
  bool writing_ = false;  // a dispatcher is applying writes
  bool stop_ = false;
  std::once_flag join_once_;  // exactly one Shutdown caller joins

  // Started last (after every member above), joined first.
  std::vector<std::thread> dispatchers_;
};

}  // namespace smoqe::exec

#endif  // SMOQE_EXEC_QUERY_SERVICE_H_
