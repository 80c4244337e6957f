// TransitionPlane / TransitionPlaneStore: shared compiled query state.
//
// Pins the contracts the engine/plane split relies on:
//  * engines sharing one plane answer bit-identically to solo engines with
//    private planes (answers AND per-run traversal statistics);
//  * configs_interned attributes plane insertions to the engine that caused
//    them: the sum across sharers equals the plane total, and a warm start
//    interns exactly zero;
//  * the sharded evaluator interns each configuration once per query (not
//    once per shard) through its plane store;
//  * concurrent cold-start interning from many threads is safe and still
//    bit-identical (run under TSan via the `concurrency` ctest label);
//  * the store pins MFA lifetimes (keep_alive) and soft-evicts only unused
//    planes, least recently touched first;
//  * chunked stores keep ids and addresses across chunk boundaries, and
//    ApproxBytes counts the chunks a plane has allocated.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiled_mfa.h"
#include "automata/compiler.h"
#include "dtd/dtd_parser.h"
#include "exec/sharded_eval.h"
#include "gen/generic_generator.h"
#include "gen/query_generator.h"
#include "hype/hype.h"
#include "hype/transition_plane.h"
#include "xml/parser.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe::hype {
namespace {

xml::Tree TestTree(int seed) {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  EXPECT_TRUE(d.ok());
  gen::GenericParams tp;
  tp.seed = 7100 + seed;
  auto tree = gen::GenerateFromDtd(d.value(), tp);
  EXPECT_TRUE(tree.ok());
  return std::move(tree.value());
}

std::vector<automata::Mfa> TestQueries(int seed, int count) {
  gen::QueryGenParams qp;
  qp.labels = {"a", "b", "c", "t"};
  qp.text_values = {"alpha"};
  std::mt19937_64 rng(8100 + seed);
  std::vector<automata::Mfa> mfas;
  for (int i = 0; i < count; ++i) {
    mfas.push_back(automata::CompileQuery(gen::RandomQuery(qp, &rng)));
  }
  return mfas;
}

std::shared_ptr<const automata::Mfa> MfaOf(const char* query) {
  auto parsed = xpath::ParseQuery(query);
  EXPECT_TRUE(parsed.ok());
  return std::make_shared<const automata::Mfa>(
      automata::CompileQuery(parsed.value()));
}

void ExpectRunStatsEqual(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.elements_visited, b.elements_visited);
  EXPECT_EQ(a.cans_vertices, b.cans_vertices);
  EXPECT_EQ(a.cans_edges, b.cans_edges);
  EXPECT_EQ(a.cans_peak_vertices, b.cans_peak_vertices);
  EXPECT_EQ(a.afa_state_requests, b.afa_state_requests);
}

TEST(ChunkedStoreTest, StableAddressesAcrossGrowth) {
  internal::ChunkedStore<int> store;
  std::vector<int*> addrs;
  for (int i = 0; i < 5000; ++i) {
    int32_t id = store.Append();
    store[id] = i;
    addrs.push_back(&store[id]);
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(&store[i], addrs[i]);  // never relocated
    EXPECT_EQ(store[i], i);
  }
  EXPECT_EQ(store.size(), 5000);
}

TEST(ChunkedStoreTest, ChunkBoundariesKeepIdsAndAddresses) {
  using Store = internal::ChunkedStore<int64_t>;
  constexpr int kChunks = 12;  // crosses 11 chunk boundaries
  Store store;
  std::vector<int64_t*> addrs;
  const int32_t total = static_cast<int32_t>(Store::ChunkBase(kChunks));
  for (int32_t i = 0; i < total; ++i) {
    int32_t id = store.Append();
    ASSERT_EQ(id, i);
    store[id] = int64_t{i} * 7;
    addrs.push_back(&store[id]);
    // Chunks are allocated whole, so capacity runs ahead of size by at most
    // the current chunk.
    EXPECT_EQ(store.capacity(), int64_t{Store::ChunkBase(Store::ChunkOf(i) + 1)});
  }
  EXPECT_EQ(Store::ChunkBase(0), 0u);
  EXPECT_EQ(Store::ChunkBase(1), 8u);  // the first chunk holds 8 elements
  for (int c = 1; c < kChunks; ++c) {
    const int32_t first = static_cast<int32_t>(Store::ChunkBase(c));
    EXPECT_EQ(Store::ChunkOf(first - 1), c - 1) << "chunk " << c;
    EXPECT_EQ(Store::ChunkOf(first), c) << "chunk " << c;
    // Each chunk doubles the one before.
    EXPECT_EQ(Store::ChunkBase(c + 1) - Store::ChunkBase(c),
              2 * (Store::ChunkBase(c) - Store::ChunkBase(c - 1)));
    // The last element of one chunk and the first of the next keep their
    // values and addresses after all later growth.
    for (int32_t id : {first - 1, first}) {
      EXPECT_EQ(&store[id], addrs[id]) << "id " << id;
      EXPECT_EQ(store[id], int64_t{id} * 7) << "id " << id;
    }
  }
  for (int32_t i = 0; i < total; ++i) ASSERT_EQ(&store[i], addrs[i]);
  EXPECT_EQ(Store::ChunkOf(INT32_MAX), Store::kMaxChunks - 1);
}

TEST(TransitionPlaneTest, SharedPlaneMatchesSoloBitIdentically) {
  for (int round = 0; round < 3; ++round) {
    xml::Tree tree = TestTree(round);
    std::vector<automata::Mfa> mfas = TestQueries(round, 8);
    TransitionPlaneStore store(tree, nullptr);
    for (const automata::Mfa& mfa : mfas) {
      EvalOptions solo_options;
      HypeEvaluator solo(tree, mfa, solo_options);
      std::vector<xml::NodeId> want = solo.Eval(tree.root());

      std::shared_ptr<TransitionPlane> plane = store.For(&mfa);
      EvalOptions shared_options;
      shared_options.plane_store = &store;  // serves `plane`
      HypeEvaluator first(tree, mfa, shared_options);
      HypeEvaluator second(tree, mfa, shared_options);
      EXPECT_EQ(first.Eval(tree.root()), want);
      EXPECT_EQ(second.Eval(tree.root()), want);
      ExpectRunStatsEqual(first.stats(), solo.stats());
      ExpectRunStatsEqual(second.stats(), solo.stats());

      // Attribution: sharers split the plane total between them, and the
      // second evaluator found everything warm.
      EXPECT_EQ(first.stats().configs_interned +
                    second.stats().configs_interned,
                plane->configs_interned());
      EXPECT_EQ(second.stats().configs_interned, 0);
    }
  }
}

TEST(TransitionPlaneTest, WarmStartInternsNothing) {
  xml::Tree tree = TestTree(11);
  std::vector<automata::Mfa> mfas = TestQueries(11, 4);
  TransitionPlaneStore store(tree, nullptr);
  for (const automata::Mfa& mfa : mfas) {
    std::shared_ptr<TransitionPlane> plane = store.For(&mfa);
    EvalOptions options;
    options.plane_store = &store;  // serves `plane`
    HypeEvaluator eval(tree, mfa, options);
    std::vector<xml::NodeId> first = eval.Eval(tree.root());
    int64_t cold = eval.stats().configs_interned;
    EXPECT_EQ(eval.Eval(tree.root()), first);
    EXPECT_EQ(eval.stats().configs_interned, cold)
        << "a repeated evaluation must intern nothing";
  }
}

TEST(TransitionPlaneTest, IndexedModesShareThePlaneToo) {
  xml::Tree tree = TestTree(21);
  std::vector<automata::Mfa> mfas = TestQueries(21, 6);
  for (SubtreeLabelIndex::Mode mode :
       {SubtreeLabelIndex::Mode::kFull, SubtreeLabelIndex::Mode::kCompressed}) {
    SubtreeLabelIndex index = SubtreeLabelIndex::Build(tree, mode, 4);
    TransitionPlaneStore store(tree, &index);
    for (const automata::Mfa& mfa : mfas) {
      EvalOptions solo_options;
      solo_options.index = &index;
      HypeEvaluator solo(tree, mfa, solo_options);
      std::vector<xml::NodeId> want = solo.Eval(tree.root());

      EvalOptions shared_options;
      shared_options.index = &index;
      shared_options.plane_store = &store;
      HypeEvaluator a(tree, mfa, shared_options);
      HypeEvaluator b(tree, mfa, shared_options);
      EXPECT_EQ(a.Eval(tree.root()), want);
      EXPECT_EQ(b.Eval(tree.root()), want);
      ExpectRunStatsEqual(a.stats(), solo.stats());
      ExpectRunStatsEqual(b.stats(), solo.stats());
      EXPECT_EQ(b.stats().configs_interned, 0);
    }
  }
}

TEST(TransitionPlaneTest, ShardedEvaluatorInternsOncePerQuery) {
  xml::Tree tree = TestTree(31);
  std::vector<automata::Mfa> mfas = TestQueries(31, 6);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  // Solo references with private planes: the per-query intern totals the
  // sharded pass must not exceed (PR 4 paid them once PER SHARD).
  std::vector<std::vector<xml::NodeId>> want;
  std::vector<int64_t> solo_interned;
  for (const automata::Mfa& mfa : mfas) {
    EvalOptions options;
    options.enable_jump = false;
    HypeEvaluator solo(tree, mfa, options);
    want.push_back(solo.Eval(tree.root()));
    solo_interned.push_back(solo.stats().configs_interned);
  }

  TransitionPlaneStore store(tree, nullptr);
  exec::ShardedOptions options;
  options.plane_store = &store;
  options.num_shards = 4;
  options.enable_jump = false;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  std::vector<std::vector<xml::NodeId>> got = eval.EvalAll(tree.root());
  for (size_t q = 0; q < mfas.size(); ++q) {
    EXPECT_EQ(got[q], want[q]) << "query " << q;
    // One shared plane per query: the shard engines TOGETHER intern at most
    // what one solo engine does (the probe may have paid for part of it).
    EXPECT_LE(eval.merged_stats(q).configs_interned, solo_interned[q])
        << "query " << q;
    EXPECT_EQ(store.For(&mfas[q])->configs_interned(), solo_interned[q])
        << "query " << q;
  }

  // Warm start: the whole sharded pass re-runs without a single plane
  // insertion (engine counters are cumulative, so the per-query attribution
  // repeats unchanged while the plane totals stay flat).
  std::vector<int64_t> cold_merged;
  for (size_t q = 0; q < mfas.size(); ++q) {
    cold_merged.push_back(eval.merged_stats(q).configs_interned);
  }
  std::vector<std::vector<xml::NodeId>> again = eval.EvalAll(tree.root());
  for (size_t q = 0; q < mfas.size(); ++q) {
    EXPECT_EQ(again[q], want[q]);
    EXPECT_EQ(eval.merged_stats(q).configs_interned, cold_merged[q])
        << "query " << q;
    EXPECT_EQ(store.For(&mfas[q])->configs_interned(), solo_interned[q])
        << "query " << q;
  }
}

// Cold-start interning from many threads at once: every thread drives its
// own engine over the SAME shared planes. Answers must match the solo
// reference on every thread; runs TSan-clean (ctest -L concurrency).
TEST(TransitionPlaneConcurrencyTest, ConcurrentColdStartIsBitIdentical) {
  for (int round = 0; round < 2; ++round) {
    xml::Tree tree = TestTree(41 + round);
    std::vector<automata::Mfa> mfas = TestQueries(41 + round, 4);
    std::vector<std::vector<xml::NodeId>> want;
    for (const automata::Mfa& mfa : mfas) {
      HypeEvaluator solo(tree, mfa);
      want.push_back(solo.Eval(tree.root()));
    }
    TransitionPlaneStore store(tree, nullptr);
    std::vector<std::shared_ptr<TransitionPlane>> planes;
    for (const automata::Mfa& mfa : mfas) planes.push_back(store.For(&mfa));

    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = 0; q < mfas.size(); ++q) {
          EvalOptions options;
          options.plane_store = &store;  // serves planes[q]
          HypeEvaluator eval(tree, mfas[q], options);
          for (int rep = 0; rep < 3; ++rep) {
            if (eval.Eval(tree.root()) != want[q]) ++failures[t];
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << "thread " << t;
    }
    // Every insertion is attributed somewhere: plane totals stay the solo
    // totals no matter how many threads raced the cold start.
    for (size_t q = 0; q < mfas.size(); ++q) {
      HypeEvaluator solo(tree, mfas[q]);
      solo.Eval(tree.root());
      EXPECT_EQ(planes[q]->configs_interned(),
                solo.stats().configs_interned + 0)
          << "query " << q;
    }
  }
}

TEST(TransitionPlaneStoreTest, KeepAlivePinsAndEvictionSparesInUsePlanes) {
  auto t = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(t.ok());
  const xml::Tree& tree = t.value();

  TransitionPlaneStore::Options options;
  options.capacity = 1;
  TransitionPlaneStore store(tree, nullptr, options);

  std::shared_ptr<const automata::Mfa> m1 = MfaOf("a/b");
  std::shared_ptr<const automata::Mfa> m2 = MfaOf("a/c");
  std::shared_ptr<const automata::Mfa> m3 = MfaOf("//b");

  // Hold the first plane (an engine would); drop the second immediately.
  std::shared_ptr<TransitionPlane> held = store.For(m1.get(), nullptr, m1);
  store.For(m2.get(), nullptr, m2);
  EXPECT_EQ(store.size(), 2u);  // m1 in use, m2 unused but within... capacity 1
  store.For(m3.get(), nullptr, m3);
  // m2 (unused) was evicted to make room; m1 survives because `held` pins it.
  EXPECT_LE(store.size(), 2u);
  std::shared_ptr<TransitionPlane> held_again = store.For(m1.get());
  EXPECT_EQ(held_again.get(), held.get());
}

TEST(TransitionPlaneStoreTest, TouchOrderPicksTheVictim) {
  auto t = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(t.ok());
  TransitionPlaneStore store(t.value(), nullptr, {.capacity = 2});
  std::shared_ptr<const automata::Mfa> m1 = MfaOf("a/b");
  std::shared_ptr<const automata::Mfa> m2 = MfaOf("a/c");
  std::shared_ptr<const automata::Mfa> m3 = MfaOf("//b");
  std::shared_ptr<const automata::Mfa> m4 = MfaOf("//c");

  std::weak_ptr<TransitionPlane> p1 = store.For(m1.get(), nullptr, m1);
  std::weak_ptr<TransitionPlane> p2 = store.For(m2.get(), nullptr, m2);
  // Touching m1 makes m2 the coldest, so m3's arrival evicts m2, not the
  // older m1.
  store.For(m1.get());
  std::weak_ptr<TransitionPlane> p3 = store.For(m3.get(), nullptr, m3);
  EXPECT_FALSE(p1.expired());
  EXPECT_TRUE(p2.expired());
  EXPECT_EQ(store.stats().evictions, 1);
  // Now m1 is the coldest.
  store.For(m4.get(), nullptr, m4);
  EXPECT_TRUE(p1.expired());
  EXPECT_FALSE(p3.expired());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evictions, 2);
}

TEST(TransitionPlaneStoreTest, PinnedPlanesAreNeverEvicted) {
  auto t = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(t.ok());
  TransitionPlaneStore store(t.value(), nullptr, {.capacity = 1});
  std::vector<std::shared_ptr<const automata::Mfa>> mfas;
  for (const char* q : {"a/b", "a/c", "//b", "//c", "a//b", "a//c"}) {
    mfas.push_back(MfaOf(q));
  }
  // The coldest plane is held, as an evaluating engine would hold it.
  std::shared_ptr<TransitionPlane> held =
      store.For(mfas[0].get(), nullptr, mfas[0]);
  for (size_t i = 1; i < mfas.size(); ++i) {
    store.For(mfas[i].get(), nullptr, mfas[i]);
    // Residency exceeds the cap only by the pinned plane: each arrival
    // evicts the one before it, never the colder held one.
    EXPECT_EQ(store.size(), 2u) << "query " << i;
  }
  EXPECT_EQ(store.stats().evictions, static_cast<int64_t>(mfas.size()) - 2);
  // The held plane is still the one registered; the touch leaves the newest
  // plane coldest, and it goes.
  EXPECT_EQ(store.For(mfas[0].get()).get(), held.get());
  EXPECT_EQ(store.size(), 1u);
  // Once released, the held plane is evictable like any other.
  std::weak_ptr<TransitionPlane> released = held;
  held.reset();
  store.For(mfas[1].get(), nullptr, mfas[1]);
  EXPECT_TRUE(released.expired());
  EXPECT_EQ(store.size(), 1u);
}

TEST(TransitionPlaneTest, ApproxBytesCountsAllocatedChunks) {
  xml::Tree tree = TestTree(61);
  std::shared_ptr<const automata::Mfa> mfa = MfaOf("a/b");
  TransitionPlaneStore store(tree, nullptr);
  std::shared_ptr<TransitionPlane> plane = store.For(mfa.get());
  EXPECT_EQ(plane->ApproxBytes(), 0);  // nothing interned, nothing allocated
  int64_t interned = 0;
  ASSERT_GE(plane->ContextConfig(0, &interned), 0);
  ASSERT_EQ(plane->configs_interned(), 1);
  // One configuration costs its whole first chunk, which is small: the old
  // 256-slot configuration and TransAux chunks alone were ~90 KB.
  const int64_t bytes = plane->ApproxBytes();
  EXPECT_GE(bytes, int64_t{8 * sizeof(TransitionPlane::Config)});
  EXPECT_LT(bytes, 16 * 1024);
  EXPECT_EQ(store.stats().approx_bytes, bytes);
}

TEST(TransitionPlaneTest, PlaneSeededFromPrebuiltCompiledMfa) {
  xml::Tree tree = TestTree(51);
  std::vector<automata::Mfa> mfas = TestQueries(51, 3);
  for (const automata::Mfa& mfa : mfas) {
    auto compiled = std::make_shared<const automata::CompiledMfa>(
        automata::CompiledMfa::Build(mfa));
    TransitionPlaneStore store(tree, nullptr);
    std::shared_ptr<TransitionPlane> plane = store.For(&mfa, compiled);
    EXPECT_EQ(&plane->compiled(), compiled.get());  // no re-flattening
    EvalOptions options;
    options.plane_store = &store;  // serves the seeded `plane`
    HypeEvaluator eval(tree, mfa, options);
    HypeEvaluator solo(tree, mfa);
    EXPECT_EQ(eval.Eval(tree.root()), solo.Eval(tree.root()));
  }
}

}  // namespace
}  // namespace smoqe::hype
