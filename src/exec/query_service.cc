#include "exec/query_service.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "exec/sharded_eval.h"

namespace smoqe::exec {

// See the header: one reusable ShardedBatchEvaluator per recent MFA set
// within one plane universe (the service's, or one role partition's), with
// or without the pool attached.
struct QueryService::CachedEvaluator {
  std::vector<std::shared_ptr<const automata::Mfa>> mfas;  // pointer-sorted
  ShardedBatchEvaluator eval;
  int64_t last_used = 0;
  hype::TransitionPlaneStore* store = nullptr;  // cache-key component
  bool pooled = false;                          // cache-key component
  bool checked_out = false;
  // Keeps the role partition (its planes, referenced by `eval`) alive while
  // this evaluator is cached, even across catalog eviction of a cold role.
  std::shared_ptr<policy::RoleCatalog::Entry> pin;

  CachedEvaluator(const xml::Tree& tree,
                  std::vector<std::shared_ptr<const automata::Mfa>> sorted,
                  const ShardedOptions& options)
      : mfas(std::move(sorted)),
        eval(tree,
             [this] {
               std::vector<const automata::Mfa*> ptrs;
               ptrs.reserve(mfas.size());
               for (const auto& mfa : mfas) ptrs.push_back(mfa.get());
               return ptrs;
             }(),
             options) {}
};

namespace {

// Normalized before the dispatcher threads (started last) can observe it.
QueryServiceOptions Validated(QueryServiceOptions options) {
  if (options.max_batch == 0) options.max_batch = 1;
  return options;
}

// Evaluators beyond this many are evicted, least recently used first,
// unless checked out. They hold per-shard engines sized by their last
// walk, so the cap bounds memory, not correctness.
constexpr size_t kMaxCachedEvaluators = 4;

}  // namespace

QueryService::QueryService(const xml::Tree& tree, QueryServiceOptions options)
    : QueryService(&tree, nullptr, std::move(options)) {}

QueryService::QueryService(const xml::Tree* tree,
                           std::unique_ptr<storage::DurableEpochStore> store,
                           QueryServiceOptions options)
    : options_(Validated(std::move(options))),
      store_(std::move(store)),
      epoch_(store_ != nullptr ? store_->Snapshot() : xml::PlaneEpoch{}),
      tree_(store_ != nullptr ? epoch_.tree.get() : tree),
      plane_owned_(store_ == nullptr && options_.plane == nullptr
                       ? xml::DocPlane::Build(*tree_)
                       : xml::DocPlane{}),
      plane_(store_ != nullptr
                 ? epoch_.plane.get()
                 : (options_.plane == nullptr ? &plane_owned_
                                              : options_.plane)),
      plane_store_(std::make_unique<hype::TransitionPlaneStore>(
          *tree_, options_.index,
          hype::TransitionPlaneStore::Options{
              .capacity = options_.cache_capacity})),
      pool_(options_.num_threads),
      cache_(options_.view, {.capacity = options_.cache_capacity}) {
  // Every dispatcher starts awake (free) and parks on its first look at
  // the empty queues.
  free_ = pool_.num_threads();
  for (int d = 0; d < pool_.num_threads(); ++d) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

StatusOr<std::unique_ptr<QueryService>> QueryService::Open(
    xml::Tree initial, QueryServiceOptions options) {
  if (options.storage_dir.empty()) {
    return Status::InvalidArgument(
        "QueryService::Open requires options.storage_dir");
  }
  if (options.index != nullptr || options.catalog != nullptr ||
      options.plane != nullptr) {
    // All three reference an externally owned tree; a durable service owns
    // (and on recovery REPLACES) its document, so they cannot match it.
    return Status::InvalidArgument(
        "a durable service owns its document: index/catalog/plane options "
        "are incompatible with storage_dir");
  }
  storage::StorageOptions storage_options;
  storage_options.snapshot_every = options.snapshot_every;
  auto store = storage::DurableEpochStore::Open(
      options.storage_dir, storage_options, std::move(initial));
  if (!store.ok()) return store.status();
  return std::unique_ptr<QueryService>(new QueryService(
      nullptr, std::move(store.value()), std::move(options)));
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Notify UNDER the lock: an unlocked notify could touch the condition
    // variables after a racing destructor finished tearing them down. A
    // dispatcher that is not parked sees stop_ before it would park.
    for (Parker* parker : parked_) parker->cv.notify_one();
  }
  // First caller joins; concurrent callers block here until the joins
  // complete, so Shutdown() never returns with a dispatcher live.
  std::call_once(join_once_, [this] {
    for (std::thread& dispatcher : dispatchers_) dispatcher.join();
  });
}

std::future<QueryService::Answer> QueryService::Submit(
    std::string query_text, SubmitOptions submit_options) {
  Pending p;
  p.text = std::move(query_text);
  p.enqueued = std::chrono::steady_clock::now();
  p.deadline = submit_options.deadline;
  p.cancel = submit_options.cancel;
  p.role = submit_options.role;
  p.max_retries = submit_options.max_retries < 0 ? 0
                                                 : submit_options.max_retries;
  std::future<Answer> result = p.promise.get_future();
  // Injected admission failure (chaos suite): resolves the future before the
  // query ever reaches the queue, like a real overload shed would.
  Status admit = Status::OK();
  if (p.role != policy::kNoRole && options_.catalog == nullptr) {
    admit = Status::InvalidArgument(
        "role-scoped Submit on a service with no role catalog");
  }
  SMOQE_FAULT_HIT(FaultSite::kServiceAdmit,
                  [&](Status s) { admit = std::move(s); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      p.promise.set_value(
          Status::FailedPrecondition("query service is shutting down"));
      return result;
    }
    ++stats_.queries_submitted;
    // Queue-depth admission control: past `max_queue` pending queries the
    // service is not keeping up, and queueing further only converts the
    // overload into unbounded latency -- shed instead, and let the client
    // retry with backoff.
    if (admit.ok() && options_.max_queue > 0 &&
        pending_.size() >= options_.max_queue) {
      admit = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(pending_.size()) +
          " pending)");
    }
    if (!admit.ok()) {
      ++stats_.queries_answered;
      if (admit.code() == StatusCode::kResourceExhausted) {
        ++stats_.queries_shed;
      } else {
        ++stats_.queries_failed;
      }
      p.promise.set_value(std::move(admit));
      return result;
    }
    if (p.role != policy::kNoRole) ++stats_.role_queries;
    pending_.push_back(std::move(p));
    // Under the lock for the same lifetime reason as in Shutdown: after we
    // release mu_, a racing Shutdown/destructor may run to completion, and
    // the condition variables must not be touched past that point. With a
    // write pending no batch may start, so waking a dispatcher is
    // pointless.
    if (writes_.empty() && !writing_) WakeOneIfNoneFree();
  }
  return result;
}

QueryService::Answer QueryService::Query(std::string query_text) {
  return Submit(std::move(query_text)).get();
}

Status QueryService::Apply(xml::TreeDelta delta) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "Apply on an in-memory service (construct with QueryService::Open)");
  }
  PendingWrite w;
  w.delta = std::move(delta);
  std::future<Status> result = w.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::FailedPrecondition("query service is shutting down");
    }
    writes_.push_back(std::move(w));
    // With batches in flight, the last one to finish applies the write.
    if (active_batches_ == 0 && !writing_) WakeOneIfNoneFree();
  }
  return result.get();
}

uint64_t QueryService::document_version() const {
  return store_ != nullptr ? store_->version() : 0;
}

Status QueryService::ApplyWrite(const xml::TreeDelta& delta) {
  Status s = store_->Apply(delta);
  if (!s.ok()) return s;
  // Swap serving to the just-published epoch. Everything whose universe was
  // the old tree goes with it: the evaluator cache (shard engines hold tree
  // and plane references) and the transition-plane store (interned against
  // the old tree). The RewriteCache survives -- compiled MFAs are
  // label-level, document-independent.
  epoch_ = store_->Snapshot();
  tree_ = epoch_.tree.get();
  plane_ = epoch_.plane.get();
  evaluators_.clear();
  plane_store_ = std::make_unique<hype::TransitionPlaneStore>(
      *tree_, options_.index,
      hype::TransitionPlaneStore::Options{.capacity = options_.cache_capacity});
  return Status::OK();
}

QueryServiceStats QueryService::stats() const {
  QueryServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  snapshot.cache = cache_.stats();
  return snapshot;
}

void QueryService::Park(std::unique_lock<std::mutex>& lock, Parker& self) {
  --free_;
  parked_.push_back(&self);
  self.cv.wait(lock, [&] { return self.woken || stop_; });
  if (self.woken) {
    self.woken = false;  // the waker unstacked it and counted it free
  } else {
    parked_.erase(std::find(parked_.begin(), parked_.end(), &self));
    ++free_;
  }
}

void QueryService::WakeOneIfNoneFree() {
  // A free dispatcher -- awake, or woken and on its way -- looks at the
  // queues before it parks, so it will find the work; waking another would
  // only split a burst across dispatchers that each pay a wake-up.
  // The most recently parked dispatcher goes first: its caches and malloc
  // arena are the warmest, and a service serving one client at a time
  // keeps running on the same thread.
  if (free_ > 0 || parked_.empty()) return;
  Parker* parker = parked_.back();
  parked_.pop_back();
  parker->woken = true;
  ++free_;
  parker->cv.notify_one();
}

void QueryService::DispatcherLoop() {
  Parker self;  // in parked_ only while this thread waits on it
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Durable writes are exclusive and drain ahead of query batches: a
    // write starts once no batch is in flight, and no batch starts while
    // one is pending. So a delta admitted before a query was admitted
    // publishes before that query evaluates, and Apply-then-Submit from
    // one client always sees its own write.
    if (!writes_.empty() && !writing_ && active_batches_ == 0) {
      writing_ = true;
      --free_;
      while (!writes_.empty()) {
        PendingWrite write = std::move(writes_.front());
        writes_.pop_front();
        lock.unlock();
        Status applied = ApplyWrite(write.delta);
        lock.lock();
        if (applied.ok()) ++stats_.writes_applied;
        write.promise.set_value(std::move(applied));
      }
      writing_ = false;
      ++free_;
      continue;
    }
    if (pending_.empty() || !writes_.empty() || writing_) {
      // Nothing this dispatcher may start. Work that is blocked (behind a
      // write or a batch in flight) always has a dispatcher that comes
      // back for it, so on stop this one can exit.
      if (stop_) return;
      Park(lock, self);
      continue;
    }
#ifdef SMOQE_FAULT_INJECTION
    if (FaultInjector::armed()) {
      // Injected dispatcher stall (chaos suite; tests use it to coalesce
      // several submissions into one batch): sleep OUTSIDE the lock so
      // clients keep submitting while the dispatcher is wedged. Another
      // dispatcher may have taken the queue or started a write meanwhile.
      lock.unlock();
      SMOQE_FAULT_DELAY_POINT(FaultSite::kServiceDispatch);
      lock.lock();
      if (pending_.empty() || !writes_.empty() || writing_) continue;
    }
#endif
    // Admission is work-conserving: a free dispatcher closes a batch with
    // whatever is pending, up to max_batch.
    std::vector<Pending> batch;
    const size_t take = std::min(pending_.size(), options_.max_batch);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    ++stats_.batches;
    if (batch.size() >= options_.max_batch) {
      ++stats_.batches_full;
    } else {
      ++stats_.batches_aged;
    }
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<int64_t>(batch.size()));
    // The fan-out gate: the pool only for a batch alone in an otherwise
    // idle service.
    const bool pooled = active_batches_ == 0 && pending_.empty();
    if (pooled) ++stats_.fan_outs;
    ++active_batches_;
    stats_.max_active_batches = std::max(
        stats_.max_active_batches, static_cast<int64_t>(active_batches_));
    --free_;
    if (!pending_.empty()) WakeOneIfNoneFree();
    lock.unlock();
    ProcessBatch(std::move(batch), pooled);
    lock.lock();
    --active_batches_;
    ++free_;
  }
}

QueryService::CachedEvaluator* QueryService::CheckOutEvaluator(
    std::vector<std::shared_ptr<const automata::Mfa>> sorted_mfas,
    hype::TransitionPlaneStore* store,
    std::shared_ptr<policy::RoleCatalog::Entry> pin, bool pooled,
    bool* reused) {
  std::unique_lock<std::mutex> lock(evaluators_mu_);
  ++evaluator_clock_;
  for (auto& entry : evaluators_) {
    if (entry->checked_out || entry->store != store ||
        entry->pooled != pooled || entry->mfas != sorted_mfas) {
      continue;
    }
    entry->checked_out = true;
    entry->last_used = evaluator_clock_;
    *reused = true;
    return entry.get();
  }
  *reused = false;
  const int64_t clock = evaluator_clock_;
  // Miss: make room first, so the entries kept idle plus the new one stay
  // within the cap. Evicted entries are destroyed, and the new one is
  // built, outside the lock, so other dispatchers' check-outs do not wait
  // on either.
  std::vector<std::unique_ptr<CachedEvaluator>> evicted =
      EvictIdleEvaluators(kMaxCachedEvaluators - 1);
  lock.unlock();
  evicted.clear();
  // Without the pool, the default unit-split target splits the tree into
  // fewer units: an inline walk has no helpers to feed, and every unit
  // costs it a probe and a subtree walk.
  ShardedOptions sharded_options;
  sharded_options.index = options_.index;
  sharded_options.plane = plane_;
  sharded_options.plane_store = store;
  sharded_options.pool = pooled ? &pool_ : nullptr;
  auto built = std::make_unique<CachedEvaluator>(
      *tree_, std::move(sorted_mfas), sharded_options);
  built->last_used = clock;
  built->store = store;
  built->pooled = pooled;
  built->checked_out = true;
  built->pin = std::move(pin);
  CachedEvaluator* entry = built.get();
  lock.lock();
  evaluators_.push_back(std::move(built));
  return entry;
}

void QueryService::ReturnEvaluator(CachedEvaluator* entry) {
  std::vector<std::unique_ptr<CachedEvaluator>> evicted;
  std::lock_guard<std::mutex> lock(evaluators_mu_);
  entry->checked_out = false;
  // Entries checked out at a miss could not make room then.
  evicted = EvictIdleEvaluators(kMaxCachedEvaluators);
}  // `evicted` is destroyed after the lock is released

std::vector<std::unique_ptr<QueryService::CachedEvaluator>>
QueryService::EvictIdleEvaluators(size_t keep) {
  std::vector<std::unique_ptr<CachedEvaluator>> evicted;
  while (evaluators_.size() > keep) {
    auto lru = evaluators_.end();
    for (auto it = evaluators_.begin(); it != evaluators_.end(); ++it) {
      if ((*it)->checked_out) continue;
      if (lru == evaluators_.end() || (*it)->last_used < (*lru)->last_used) {
        lru = it;
      }
    }
    if (lru == evaluators_.end()) break;  // every entry is checked out
    evicted.push_back(std::move(*lru));
    evaluators_.erase(lru);
  }
  return evicted;
}

void QueryService::ProcessBatch(std::vector<Pending> batch, bool pooled) {
  const auto now = std::chrono::steady_clock::now();

  // Every batch member ends up in `resolutions` with exactly one terminal
  // Answer; promises are set only after the whole batch is accounted, so a
  // client whose future has resolved always finds itself in the counters.
  std::vector<std::pair<size_t, Answer>> resolutions;
  std::vector<char> live(batch.size(), 1);
  std::vector<int> retries(batch.size(), 0);
  int64_t timed_out = 0;
  int64_t shed = 0;
  int64_t cancelled = 0;
  int64_t failed = 0;
  int64_t retried = 0;
  int64_t retries_exhausted = 0;
  auto resolve = [&](size_t i, Answer answer) {
    live[i] = 0;
    resolutions.emplace_back(i, std::move(answer));
  };

  // Pre-evaluation admission: queries already cancelled, past their
  // deadline, or stale (aged out in the queue under overload) resolve
  // without costing an evaluation.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].cancel != nullptr && batch[i].cancel->cancelled()) {
      ++cancelled;
      resolve(i, Status::Cancelled("cancelled before evaluation"));
    } else if (batch[i].deadline.expired()) {
      ++timed_out;
      resolve(i, Status::DeadlineExceeded("deadline expired in queue"));
    } else if (options_.max_queue_age.count() > 0 &&
               now - batch[i].enqueued > options_.max_queue_age) {
      ++shed;
      resolve(i, Status::ResourceExhausted("query aged out in queue"));
    }
  }

  // Compile each member through its serving partition's cache -- the role's
  // catalog entry for role-scoped queries ((role, query)-keyed rewriting),
  // the service-level cache otherwise -- and group batch entries by compiled
  // MFA so duplicate queries (same normalized text, same role) are evaluated
  // once. Two roles never share an MFA object, so coalescing cannot cross
  // roles. The shared_ptrs keep evicted entries alive through the pass.
  std::vector<std::shared_ptr<const automata::Mfa>> mfas;
  std::vector<std::shared_ptr<hype::TransitionPlane>> planes;  // per MFA
  std::vector<std::vector<size_t>> waiters;  // per MFA: batch indices
  // Per MFA slot: the role partition it compiled through (null = service).
  std::vector<std::shared_ptr<policy::RoleCatalog::Entry>> slot_entry;
  std::unordered_map<const automata::Mfa*, size_t> slot_of;
  int64_t coalesced = 0;
  int64_t role_denied_empty = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!live[i]) continue;
    std::shared_ptr<policy::RoleCatalog::Entry> entry;
    if (batch[i].role != policy::kNoRole) {
      auto acquired = options_.catalog->Acquire(batch[i].role);
      if (!acquired.ok()) {
        ++failed;
        resolve(i, acquired.status());
        continue;
      }
      entry = std::move(acquired.value());
      if (entry->root_hidden()) {
        // The role sees nothing. Still a parse boundary: garbage stays an
        // error; a well-formed query answers the empty node set (the view
        // is empty, not broken).
        auto normalized = rewrite::RewriteCache::NormalizeQuery(batch[i].text);
        if (!normalized.ok()) {
          ++failed;
          resolve(i, normalized.status());
        } else {
          ++role_denied_empty;
          resolve(i, std::vector<xml::NodeId>{});
        }
        continue;
      }
    }
    auto compiled = entry != nullptr ? entry->Compile(batch[i].text) : [&] {
      std::lock_guard<std::mutex> lock(cache_mu_);
      return cache_.Get(batch[i].text);
    }();
    if (!compiled.ok()) {
      ++failed;
      resolve(i, compiled.status());
      continue;
    }
    std::shared_ptr<const automata::Mfa> mfa = std::move(compiled.value().mfa);
    auto [it, inserted] = slot_of.emplace(mfa.get(), mfas.size());
    if (inserted) {
      // Register the query's transition plane now -- in the partition that
      // compiled it, seeded with the cache's warm CSR mirror and pinning
      // the MFA to the entry: every evaluator this batch (or a later one)
      // creates for the MFA shares it. Holding the plane for the batch
      // keeps the store's capacity bound from evicting it (and with it
      // the keep_alive) before this batch's evaluator looks it up.
      hype::TransitionPlaneStore& store =
          entry != nullptr ? entry->planes() : *plane_store_;
      planes.push_back(
          store.For(mfa.get(), std::move(compiled.value().compiled), mfa));
      mfas.push_back(std::move(mfa));
      waiters.emplace_back();
      slot_entry.push_back(std::move(entry));
    } else {
      ++coalesced;
    }
    waiters[it->second].push_back(i);
  }

  // Partition the MFA slots by serving partition: one evaluation group per
  // role (plus one for service-level queries). Isolation is the point --
  // each group evaluates against its own plane universe, so a shared pass
  // never mixes two roles' interned state. Single-tenant batches collapse
  // to exactly one group, the pre-policy behavior.
  struct Group {
    std::shared_ptr<policy::RoleCatalog::Entry> entry;  // null = service
    std::vector<size_t> slots;
  };
  std::vector<Group> groups;
  for (size_t s = 0; s < mfas.size(); ++s) {
    policy::RoleCatalog::Entry* key = slot_entry[s].get();
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.entry.get() == key) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({slot_entry[s], {}});
      group = &groups.back();
    }
    group->slots.push_back(s);
  }

  // Min-deadline retry loop, per group: each round evaluates the group's
  // still-live members under the EARLIEST of their deadlines (plus a poll
  // over their cancel tokens). A kDeadlineExceeded abort resolves every
  // expired member -- at least the min-deadline holder, so each retry
  // strictly shrinks the set and the loop terminates -- and re-runs the
  // remainder, giving per-query deadline isolation inside one coalesced
  // batch. A kCancelled abort likewise resolves the cancelled members and
  // retries. Any other failure (injected shard fault -> kUnavailable) is
  // terminal for the whole round's group.
  int64_t evaluator_reuses_batch = 0;
  int64_t role_groups = 0;
  for (Group& group : groups) {
  hype::TransitionPlaneStore* store =
      group.entry != nullptr ? &group.entry->planes() : plane_store_.get();
  if (group.entry != nullptr) ++role_groups;
  bool first_round = true;
  int backoff_round = 0;
  for (;;) {
    if (backoff_round > 0) {
      // A retry round: every survivor of the aborted pass burns one unit of
      // its SubmitOptions::max_retries budget (kUnavailable past it), and
      // the group backs off exponentially before re-evaluating -- a stream
      // of expiring/cancelling siblings can delay a query but can no longer
      // pin it unboundedly. The backoff stalls only this dispatcher.
      for (size_t s : group.slots) {
        for (size_t i : waiters[s]) {
          if (!live[i]) continue;
          ++retries[i];
          if (retries[i] > batch[i].max_retries) {
            ++failed;
            ++retries_exhausted;
            resolve(i, Status::Unavailable(
                           "retry budget exhausted after " +
                           std::to_string(batch[i].max_retries) +
                           " re-evaluation rounds; safe to resubmit"));
          } else {
            ++retried;
          }
        }
      }
      const int shift = backoff_round < 6 ? backoff_round - 1 : 5;
      std::this_thread::sleep_for(std::chrono::microseconds(50 << shift));
    }
    std::vector<size_t> slots;  // group MFA slots with >= 1 live waiter
    for (size_t s : group.slots) {
      for (size_t i : waiters[s]) {
        if (live[i]) {
          slots.push_back(s);
          break;
        }
      }
    }
    if (slots.empty()) break;

    Deadline min_deadline;  // Never
    bool any_token = false;
    for (size_t s : slots) {
      for (size_t i : waiters[s]) {
        if (!live[i]) continue;
        if (batch[i].deadline.has_deadline() &&
            (!min_deadline.has_deadline() ||
             batch[i].deadline.when() < min_deadline.when())) {
          min_deadline = batch[i].deadline;
        }
        any_token |= batch[i].cancel != nullptr;
      }
    }
    EvalControl control;
    control.deadline = min_deadline;
    control.checkpoint_interval = options_.checkpoint_interval;
    if (any_token) {
      control.extra_poll = [&]() {
        for (size_t s : slots) {
          for (size_t i : waiters[s]) {
            if (live[i] && batch[i].cancel != nullptr &&
                batch[i].cancel->cancelled()) {
              return StatusCode::kCancelled;
            }
          }
        }
        return StatusCode::kOk;
      };
    }

    // Canonicalize the round's MFA set by pointer order so repeated query
    // mixes -- whatever order clients submitted them in -- reuse one warm
    // evaluator; `order[k]` maps the k-th sorted position back to `slots`.
    std::vector<size_t> order(slots.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return mfas[slots[a]].get() < mfas[slots[b]].get();
    });
    std::vector<std::shared_ptr<const automata::Mfa>> sorted;
    sorted.reserve(slots.size());
    for (size_t k : order) sorted.push_back(mfas[slots[k]]);

    bool reused = false;
    CachedEvaluator* cached = CheckOutEvaluator(std::move(sorted), store,
                                                group.entry, pooled, &reused);
    if (first_round) {
      evaluator_reuses_batch += reused ? 1 : 0;
      first_round = false;
    }
    std::vector<std::vector<xml::NodeId>> sorted_answers =
        control.enabled() ? cached->eval.EvalAll(tree_->root(), control)
                          : cached->eval.EvalAll(tree_->root());
    const Status st = cached->eval.last_status();
    ReturnEvaluator(cached);

    if (st.ok()) {
      std::vector<std::vector<xml::NodeId>> answers(slots.size());
      for (size_t k = 0; k < order.size(); ++k) {
        answers[order[k]] = std::move(sorted_answers[k]);
      }
      for (size_t k = 0; k < slots.size(); ++k) {
        std::vector<size_t> targets;
        for (size_t i : waiters[slots[k]]) {
          if (live[i]) targets.push_back(i);
        }
        for (size_t t = 0; t < targets.size(); ++t) {
          if (t + 1 == targets.size()) {
            resolve(targets[t], std::move(answers[k]));
          } else {
            resolve(targets[t], answers[k]);
          }
        }
      }
      break;
    }

    bool progressed = false;
    if (st.code() == StatusCode::kDeadlineExceeded) {
      for (size_t s : slots) {
        for (size_t i : waiters[s]) {
          if (live[i] && batch[i].deadline.expired()) {
            ++timed_out;
            resolve(i, Status::DeadlineExceeded("deadline expired during "
                                                "evaluation"));
            progressed = true;
          }
        }
      }
    } else if (st.code() == StatusCode::kCancelled) {
      for (size_t s : slots) {
        for (size_t i : waiters[s]) {
          if (live[i] && batch[i].cancel != nullptr &&
              batch[i].cancel->cancelled()) {
            ++cancelled;
            resolve(i, Status::Cancelled("cancelled during evaluation"));
            progressed = true;
          }
        }
      }
    }
    if (progressed) ++backoff_round;
    if (!progressed) {
      // Transient shard failure (or, defensively, an abort whose trigger we
      // can no longer attribute): terminal for every remaining member. The
      // status code is one of the documented terminal set; clients retry.
      for (size_t s : slots) {
        for (size_t i : waiters[s]) {
          if (!live[i]) continue;
          switch (st.code()) {
            case StatusCode::kResourceExhausted: ++shed; break;
            case StatusCode::kDeadlineExceeded: ++timed_out; break;
            case StatusCode::kCancelled: ++cancelled; break;
            default: ++failed; break;
          }
          resolve(i, Status(st.code(), st.message()));
        }
      }
      break;
    }
  }
  }  // per-group evaluation

  // Account the batch BEFORE resolving any promise: a client whose future
  // has resolved always finds itself in the counters.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries_answered += static_cast<int64_t>(batch.size());
    stats_.queries_failed += failed;
    stats_.queries_timed_out += timed_out;
    stats_.queries_shed += shed;
    stats_.queries_cancelled += cancelled;
    stats_.coalesced_duplicates += coalesced;
    stats_.evaluator_reuses += evaluator_reuses_batch;
    stats_.role_groups += role_groups;
    stats_.role_denied_empty += role_denied_empty;
    stats_.queries_retried += retried;
    stats_.retries_exhausted += retries_exhausted;
  }

  for (auto& [i, answer] : resolutions) {
    batch[i].promise.set_value(std::move(answer));
  }
}

}  // namespace smoqe::exec
