// Memoization of the query -> MFA compilation pipeline.
//
// The Section-5 rewriting (parse, skeleton construction, product with the
// view DTD, AFA flattening) is the per-query setup cost of view-based query
// answering; a server seeing the same query text repeatedly pays it every
// time. RewriteCache memoizes NORMALIZED query text -> compiled query so a
// repeated query skips parsing, rewriting, and compilation entirely.
//
// A cache entry is the full reusable artifact of compilation, not just the
// automaton: the rewritten/compiled Mfa PLUS its automata::CompiledMfa CSR
// mirror (built once at miss time). A cache hit therefore returns WARM
// compiled state -- evaluator front-ends seed their hype::TransitionPlane
// from the mirror instead of re-flattening the automaton per engine, shard,
// or batch.
//
// Keying: entries are keyed by NORMALIZED text -- the query parsed and
// re-printed through the canonical xpath printer -- so all spellings of one
// query share an entry and one MFA: whitespace, redundant parentheses, and
// the '//' sugar (desugared to /(*)*/ at parse time) all normalize away.
// Each entry also keeps the raw text that created it, and a lookup tries the
// raw text first, so repeating that exact text costs one hash lookup, no
// parse and no print. Any other spelling parses and normalizes, then hits
// the same entry. The raw key lives and dies with its entry.
//
// Two modes:
//  * view mode  (view != nullptr): queries are rewritten over the view into
//    source MFAs (rewrite::RewriteToMfa), the reusable artifact of
//    view-based answering;
//  * plain mode (view == nullptr): queries compile directly
//    (automata::CompileQuery) for querying a document without a view.
//
// Entries hand out shared_ptrs: an evaluator can keep using an MFA and its
// mirror after the entry was evicted. Eviction is LRU at `capacity` entries.
// The cache is not thread-safe; shard or lock externally.

#ifndef SMOQE_REWRITE_REWRITE_CACHE_H_
#define SMOQE_REWRITE_REWRITE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "automata/compiled_mfa.h"
#include "automata/mfa.h"
#include "common/status.h"
#include "view/view_def.h"

namespace smoqe::rewrite {

struct RewriteCacheOptions {
  /// Maximum cached queries; least-recently-used entries are evicted beyond
  /// it. 0 means unbounded.
  size_t capacity = 1024;
};

struct RewriteCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

/// The reusable compilation artifact of one query: the (rewritten) MFA and
/// its dense CSR mirror, both immutable and shareable across threads.
struct CompiledQuery {
  std::shared_ptr<const automata::Mfa> mfa;
  std::shared_ptr<const automata::CompiledMfa> compiled;
};

class RewriteCache {
 public:
  /// `view` may be null (plain mode, see above); when set it must outlive
  /// the cache.
  explicit RewriteCache(const view::ViewDef* view,
                        RewriteCacheOptions options = {});

  /// The compiled (rewritten) query for `query_text`, from the cache when
  /// the raw or the normalized text was seen before. Parse/rewrite failures
  /// are returned and not cached.
  StatusOr<CompiledQuery> Get(std::string_view query_text);

  /// Canonical cache key for a query text (exposed for tests/diagnostics).
  static StatusOr<std::string> NormalizeQuery(std::string_view query_text);

  const RewriteCacheStats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }
  void Clear();

 private:
  struct Entry {
    std::string key;
    std::string raw;  // the text that created the entry
    CompiledQuery query;
  };
  using EntryIt = std::list<Entry>::iterator;

  /// Moves `it` to the most-recent end and returns its query.
  const CompiledQuery& Touch(EntryIt it);

  const view::ViewDef* view_;
  RewriteCacheOptions options_;
  RewriteCacheStats stats_;
  // LRU list, most-recent first; both maps point into it, keyed by views of
  // the entries' own strings (list nodes never move).
  std::list<Entry> lru_;
  std::unordered_map<std::string_view, EntryIt> entries_;  // normalized key
  std::unordered_map<std::string_view, EntryIt> raw_;      // raw text
};

}  // namespace smoqe::rewrite

#endif  // SMOQE_REWRITE_REWRITE_CACHE_H_
