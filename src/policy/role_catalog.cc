#include "policy/role_catalog.h"

#include <string>
#include <tuple>
#include <utility>

namespace smoqe::policy {

RoleCatalog::Entry::Entry(CompiledRole compiled, const xml::Tree& tree,
                          const hype::SubtreeLabelIndex* index,
                          const RoleCatalogOptions& options)
    // Members initialize in declaration order, so compiled_ is live before
    // the caches bind to its view. A root-hidden entry has a null view; its
    // cache is never consulted (Compile's precondition).
    : compiled_(std::move(compiled)),
      cache_(compiled_.view.get(),
             rewrite::RewriteCacheOptions{options.cache_capacity}),
      planes_(tree, index,
              hype::TransitionPlaneStore::Options{options.cache_capacity}) {}

StatusOr<rewrite::CompiledQuery> RoleCatalog::Entry::Compile(
    std::string_view query_text) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.Get(query_text);
}

rewrite::RewriteCacheStats RoleCatalog::Entry::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.stats();
}

RoleCatalog::RoleCatalog(const Policy& policy, const xml::Tree& tree,
                         const hype::SubtreeLabelIndex* index,
                         RoleCatalogOptions options)
    : policy_(policy), tree_(tree), index_(index), options_(options) {}

StatusOr<std::shared_ptr<RoleCatalog::Entry>> RoleCatalog::Acquire(
    RoleId role) {
  // Declared before the lock, so evicted partitions and a partition that
  // lost a compile race are destroyed after it is released.
  std::vector<std::shared_ptr<Entry>> evicted;
  std::shared_ptr<Entry> built;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(role);
  bool inserted = false;
  if (it == entries_.end()) {
    // Cold: compile outside the lock (a milliseconds-scale DTD pass), then
    // install unless a concurrent Acquire of the same role got there first
    // -- the loser's partition is discarded and the Acquire counts as a hit.
    lock.unlock();
    SMOQE_ASSIGN_OR_RETURN(CompiledRole compiled, CompileRole(policy_, role));
    built.reset(new Entry(std::move(compiled), tree_, index_, options_));
    lock.lock();
    std::tie(it, inserted) = entries_.try_emplace(role);
    if (inserted) {
      lru_.push_front(std::move(built));
      it->second = lru_.begin();
    }
  }
  ++(inserted ? stats_.compiles : stats_.hits);
  lru_.splice(lru_.begin(), lru_, it->second);
  std::shared_ptr<Entry> entry = *it->second;
  EvictLocked(&evicted);
  return entry;
}

void RoleCatalog::EvictLocked(std::vector<std::shared_ptr<Entry>>* evicted) {
  // Soft eviction from the cold end: only partitions nobody references
  // (use_count 1 = the list's). In-use entries are never dropped, so the cap
  // bounds retained memory, not correctness -- residency can exceed the cap
  // while clients pin entries, and converges back on any later Acquire. The
  // caller's own entry is pinned by the copy it is about to return. Same
  // discipline as TransitionPlaneStore.
  if (options_.role_capacity == 0) return;
  auto it = lru_.end();
  while (lru_.size() > options_.role_capacity && it != lru_.begin()) {
    --it;
    if (it->use_count() != 1) continue;
    entries_.erase((*it)->role());
    evicted->push_back(std::move(*it));
    it = lru_.erase(it);
    ++stats_.planes_evicted;
  }
}

StatusOr<std::shared_ptr<RoleCatalog::Entry>> RoleCatalog::Acquire(
    std::string_view role_name) {
  RoleId role = policy_.FindRole(role_name);
  if (role == kNoRole) {
    return Status::InvalidArgument("unknown role '" + std::string(role_name) +
                                   "'");
  }
  return Acquire(role);
}

RoleCatalogStats RoleCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RoleCatalogStats out = stats_;
  out.resident = static_cast<int64_t>(entries_.size());
  return out;
}

hype::PlaneStoreStats RoleCatalog::plane_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  hype::PlaneStoreStats out;
  for (const std::shared_ptr<Entry>& entry : lru_) {
    hype::PlaneStoreStats s = entry->planes_.stats();
    out.planes += s.planes;
    out.evictions += s.evictions;
    out.configs_interned += s.configs_interned;
    out.approx_bytes += s.approx_bytes;
  }
  return out;
}

}  // namespace smoqe::policy
