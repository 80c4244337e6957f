// RewriteCache: normalized-text keying (hits across spellings), the raw-text
// key, LRU eviction, error propagation, and the cached MFA answering
// exactly like a freshly rewritten/compiled one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/hype.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/rewriter.h"
#include "xpath/parser.h"

namespace smoqe::rewrite {
namespace {

xml::Tree Hospital(int patients) {
  gen::HospitalParams params;
  params.patients = patients;
  params.seed = 99;
  params.heart_disease_prob = 0.3;
  return gen::GenerateHospital(params);
}

TEST(RewriteCacheTest, NormalizationMergesSpellings) {
  RewriteCache cache(nullptr);
  // Whitespace, redundant parentheses, and the '//' sugar all normalize to
  // one key: first call misses, the rest hit the same entry.
  auto a = cache.Get("//diagnosis");
  auto b = cache.Get("  //  diagnosis ");
  auto c = cache.Get("(*)*/diagnosis");
  auto d = cache.Get("(((*)*/diagnosis))");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(a.value().mfa.get(), b.value().mfa.get());
  EXPECT_EQ(a.value().mfa.get(), c.value().mfa.get());
  EXPECT_EQ(a.value().mfa.get(), d.value().mfa.get());
  // A hit returns the warm compiled mirror, not just the automaton.
  ASSERT_NE(a.value().compiled, nullptr);
  EXPECT_EQ(a.value().compiled.get(), d.value().compiled.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 3);
}

TEST(RewriteCacheTest, ExactRepeatHitsTheSameEntry) {
  RewriteCache cache(nullptr);
  auto first = cache.Get("a/b[c]");
  auto again = cache.Get("a/b[c]");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value().mfa.get(), again.value().mfa.get());
  EXPECT_EQ(first.value().compiled.get(), again.value().compiled.get());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(RewriteCacheTest, SpellingsShareOneEntry) {
  RewriteCache cache(nullptr);
  auto a = cache.Get("//diagnosis");
  // Another spelling normalizes onto the entry the first one created.
  auto b = cache.Get("( //diagnosis )");
  auto b_again = cache.Get("( //diagnosis )");
  auto a_again = cache.Get("//diagnosis");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b_again.ok());
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(a.value().mfa.get(), b.value().mfa.get());
  EXPECT_EQ(a.value().mfa.get(), b_again.value().mfa.get());
  EXPECT_EQ(a.value().mfa.get(), a_again.value().mfa.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 3);
}

TEST(RewriteCacheTest, CapacityCountsEntriesNotSpellings) {
  RewriteCacheOptions options;
  options.capacity = 2;
  RewriteCache cache(nullptr, options);
  // Many spellings of one query make one entry.
  std::string spelling = "a";
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.Get(spelling).ok());
    spelling = " " + spelling;
  }
  ASSERT_TRUE(cache.Get("b").ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 19);
}

TEST(RewriteCacheTest, EvictionDropsTheRawKey) {
  RewriteCacheOptions options;
  options.capacity = 1;
  RewriteCache cache(nullptr, options);
  ASSERT_TRUE(cache.Get("a").ok());
  ASSERT_TRUE(cache.Get("b").ok());  // evicts 'a' with its raw key
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(cache.Get("a").ok());  // gone with its entry: a fresh miss
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Get("a").ok());
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(RewriteCacheTest, CompiledMirrorMatchesMfa) {
  RewriteCache cache(nullptr);
  auto q = cache.Get("a/b[c]/d");
  ASSERT_TRUE(q.ok());
  const automata::Mfa& mfa = *q.value().mfa;
  const automata::CompiledMfa& cm = *q.value().compiled;
  ASSERT_EQ(cm.num_nfa_states(), mfa.num_nfa_states());
  ASSERT_EQ(cm.num_afa_states(), mfa.num_afa_states());
  EXPECT_EQ(cm.start, mfa.start);
  for (automata::StateId s = 0; s < mfa.num_nfa_states(); ++s) {
    EXPECT_EQ(cm.IsNfaFinal(s), mfa.nfa[s].is_final);
    EXPECT_EQ(cm.afa_entry[s], mfa.nfa[s].afa_entry);
    size_t labeled = 0, wild = 0;
    for (const automata::NfaTransition& t : mfa.nfa[s].trans) {
      (t.wildcard ? wild : labeled) += 1;
    }
    EXPECT_EQ(cm.TransOf(s).size(), labeled);
    EXPECT_EQ(cm.WildOf(s).size(), wild);
    EXPECT_EQ(cm.EpsOf(s).size(), mfa.nfa[s].eps.size());
    // The precomputed closure agrees with the reference EpsClosure.
    std::vector<automata::StateId> closure = {s};
    automata::EpsClosure(mfa, &closure);
    std::span<const automata::StateId> got = cm.ClosureOf(s);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), closure.begin(),
                           closure.end()));
  }
  // Stratified order: operands precede their operators unless they share a
  // strongly connected component (Kleene cycle).
  for (automata::StateId s = 0; s < mfa.num_afa_states(); ++s) {
    for (automata::StateId o : cm.OperandsOf(s)) {
      if (cm.afa_scc[o] != cm.afa_scc[s]) {
        EXPECT_LT(cm.afa_rank[o], cm.afa_rank[s]);
      }
    }
  }
}

TEST(RewriteCacheTest, NormalizeQueryIsCanonical) {
  auto k1 = RewriteCache::NormalizeQuery("a / b[c]");
  auto k2 = RewriteCache::NormalizeQuery("(a)/(b)[c]");
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(k1.value(), k2.value());
  EXPECT_FALSE(RewriteCache::NormalizeQuery("a[[").ok());
}

TEST(RewriteCacheTest, PlainModeAnswersMatchFreshCompilation) {
  xml::Tree tree = Hospital(10);
  RewriteCache cache(nullptr);
  const char* query = "department/patient[visit/treatment/test]/pname";
  auto cached = cache.Get(query);
  ASSERT_TRUE(cached.ok());
  // Second lookup returns the same MFA from the cache.
  auto again = cache.Get(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cached.value().mfa.get(), again.value().mfa.get());

  hype::HypeEvaluator eval(tree, *cached.value().mfa);
  auto parsed = xpath::ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(eval.Eval(tree.root()),
            eval::NaiveEvaluator(tree).Eval(parsed.value(), tree.root()));
}

TEST(RewriteCacheTest, ViewModeAnswersMatchFreshRewrite) {
  view::ViewDef def = gen::HospitalView();
  xml::Tree source = Hospital(12);
  RewriteCache cache(&def);
  const char* query = "patient[record/diagnosis/text() = 'heart disease']";

  auto cached = cache.Get(query);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cache.Get(query).ok());
  EXPECT_EQ(cache.stats().hits, 1);

  auto parsed = xpath::ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  auto fresh = RewriteToMfa(parsed.value(), def);
  ASSERT_TRUE(fresh.ok());

  hype::HypeEvaluator cached_eval(source, *cached.value().mfa);
  hype::HypeEvaluator fresh_eval(source, fresh.value());
  EXPECT_EQ(cached_eval.Eval(source.root()), fresh_eval.Eval(source.root()));
}

TEST(RewriteCacheTest, LruEvictionAtCapacity) {
  RewriteCacheOptions options;
  options.capacity = 2;
  RewriteCache cache(nullptr, options);
  ASSERT_TRUE(cache.Get("a").ok());
  ASSERT_TRUE(cache.Get("b").ok());
  ASSERT_TRUE(cache.Get("a").ok());  // refresh 'a': 'b' is now oldest
  ASSERT_TRUE(cache.Get("c").ok());  // evicts 'b'
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(cache.Get("a").ok());  // still cached
  EXPECT_EQ(cache.stats().hits, 2);
  ASSERT_TRUE(cache.Get("b").ok());  // evicted: a fresh miss
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(RewriteCacheTest, ErrorsPropagateAndAreNotCached) {
  RewriteCache cache(nullptr);
  EXPECT_FALSE(cache.Get("][").ok());
  EXPECT_EQ(cache.size(), 0u);

  // View mode: position() is not rewritable; the failure must not poison the
  // cache for later valid queries.
  view::ViewDef def = gen::HospitalView();
  RewriteCache view_cache(&def);
  EXPECT_FALSE(view_cache.Get("patient[position() = 2]").ok());
  EXPECT_EQ(view_cache.size(), 0u);
  EXPECT_TRUE(view_cache.Get("patient/record").ok());
}

TEST(RewriteCacheTest, ClearResetsEntriesButKeepsStats) {
  RewriteCache cache(nullptr);
  ASSERT_TRUE(cache.Get("a/b").ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Get("a/b").ok());
  EXPECT_EQ(cache.stats().misses, 2);
}

}  // namespace
}  // namespace smoqe::rewrite
