#include "rewrite/rewrite_cache.h"

#include <utility>

#include "automata/compiler.h"
#include "rewrite/rewriter.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe::rewrite {

RewriteCache::RewriteCache(const view::ViewDef* view,
                           RewriteCacheOptions options)
    : view_(view), options_(options) {}

StatusOr<std::string> RewriteCache::NormalizeQuery(std::string_view query_text) {
  SMOQE_ASSIGN_OR_RETURN(xpath::PathPtr parsed, xpath::ParseQuery(query_text));
  return xpath::ToString(parsed);
}

const CompiledQuery& RewriteCache::Touch(EntryIt it) {
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it);  // most-recent first
  return it->query;
}

StatusOr<CompiledQuery> RewriteCache::Get(std::string_view query_text) {
  auto raw = raw_.find(query_text);
  if (raw != raw_.end()) return Touch(raw->second);

  SMOQE_ASSIGN_OR_RETURN(xpath::PathPtr parsed, xpath::ParseQuery(query_text));
  std::string key = xpath::ToString(parsed);

  auto it = entries_.find(key);
  if (it != entries_.end()) return Touch(it->second);
  ++stats_.misses;

  CompiledQuery query;
  if (view_ != nullptr) {
    SMOQE_ASSIGN_OR_RETURN(automata::Mfa rewritten,
                           RewriteToMfa(parsed, *view_));
    query.mfa = std::make_shared<const automata::Mfa>(std::move(rewritten));
  } else {
    query.mfa =
        std::make_shared<const automata::Mfa>(automata::CompileQuery(parsed));
  }
  // Flatten once at miss time: every hit hands out the warm CSR mirror.
  query.compiled = std::make_shared<const automata::CompiledMfa>(
      automata::CompiledMfa::Build(*query.mfa));

  lru_.push_front(Entry{std::move(key), std::string(query_text), query});
  entries_.emplace(std::string_view(lru_.front().key), lru_.begin());
  raw_.emplace(std::string_view(lru_.front().raw), lru_.begin());

  if (options_.capacity > 0 && entries_.size() > options_.capacity) {
    const Entry& oldest = lru_.back();
    raw_.erase(std::string_view(oldest.raw));
    entries_.erase(std::string_view(oldest.key));
    lru_.pop_back();
    ++stats_.evictions;
  }
  return query;
}

void RewriteCache::Clear() {
  raw_.clear();
  entries_.clear();
  lru_.clear();
}

}  // namespace smoqe::rewrite
