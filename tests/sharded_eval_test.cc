// exec::ShardedBatchEvaluator: sharded parallel evaluation must be
// bit-identical to solo HypeEvaluator / BatchHypeEvaluator runs -- across
// pool widths, shard targets, index modes, contexts, and randomized query
// workloads (including non-shardable queries that exercise the whole-tree
// fallback, and dead queries) -- on both execution paths, inline on the
// calling thread and fanned out to pool helpers. Runs under the
// `concurrency` CTest label, so the TSan CI job races real helper walks.

#include "exec/sharded_eval.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "common/thread_pool.h"
#include "gen/hospital_generator.h"
#include "gen/query_generator.h"
#include "hype/batch_hype.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe::exec {
namespace {

using NodeVec = std::vector<xml::NodeId>;

xml::Tree Hospital(int patients, uint64_t seed) {
  gen::HospitalParams params;
  params.patients = patients;
  params.seed = seed;
  params.heart_disease_prob = 0.3;
  return gen::GenerateHospital(params);
}

std::vector<automata::Mfa> CompileAll(const std::vector<std::string>& queries) {
  std::vector<automata::Mfa> mfas;
  mfas.reserve(queries.size());
  for (const std::string& q : queries) {
    auto parsed = xpath::ParseQuery(q);
    EXPECT_TRUE(parsed.ok()) << q << ": " << parsed.status().ToString();
    mfas.push_back(automata::CompileQuery(parsed.value()));
  }
  return mfas;
}

// The workload the fixed suites run: navigation, filters, recursion, a
// context-annotated query ((department/patient)* filtered at the very
// context, which must take the fallback path) and a dead query.
std::vector<std::string> FixedQueries() {
  return {
      "department/patient/pname",
      "department/patient[visit]/pname",
      "//diagnosis",
      "//patient[visit/treatment/medication]",
      "department/patient[visit/treatment/test]/pname",
      "department/patient/(parent/patient)*"
      "[visit/treatment/medication/diagnosis/text() = 'heart disease']",
      "department/patient[not(visit/treatment/test)]",
      "(department/patient)*[pname/text() = 'P0']/visit",
      "department/*/visit",
      "missing_label",
      ".",
      "(department)*/patient/sibling",
      "department/patient[address/city/text() = 'Edinburgh']/pname",
  };
}

// Solo HypeEvaluator answers and statistics: the reference every sharded
// run must reproduce bit for bit.
struct SoloRun {
  std::vector<NodeVec> answers;
  std::vector<hype::EvalStats> stats;
};

SoloRun Solo(const xml::Tree& tree, const std::vector<automata::Mfa>& mfas,
             const hype::SubtreeLabelIndex* index, xml::NodeId context) {
  hype::EvalOptions options;
  options.index = index;
  SoloRun run;
  for (const automata::Mfa& mfa : mfas) {
    hype::HypeEvaluator eval(tree, mfa, options);
    run.answers.push_back(eval.Eval(context));
    run.stats.push_back(eval.stats());
  }
  return run;
}

// Runs `sharded` once at `context` and checks it against `solo`.
void ExpectMatchesSolo(ShardedBatchEvaluator& sharded, xml::NodeId context,
                       const SoloRun& solo,
                       const std::vector<std::string>& queries,
                       const std::string& setup) {
  std::vector<NodeVec> answers = sharded.EvalAll(context);
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(answers[i], solo.answers[i])
        << "sharded vs solo, query " << queries[i] << " " << setup;
    // Sharded traversal work must equal the solo pass: same elements
    // visited, same cans sizes -- the units really did partition the solo
    // walk rather than approximate it.
    EXPECT_EQ(sharded.merged_stats(i).elements_visited,
              solo.stats[i].elements_visited)
        << queries[i] << " " << setup;
    EXPECT_EQ(sharded.merged_stats(i).cans_vertices,
              solo.stats[i].cans_vertices)
        << queries[i] << " " << setup;
    EXPECT_EQ(sharded.merged_stats(i).cans_peak_vertices,
              solo.stats[i].cans_peak_vertices)
        << queries[i] << " " << setup;
  }
}

// The three index modes every equivalence check runs in.
struct IndexModes {
  explicit IndexModes(const xml::Tree& tree)
      : full(hype::SubtreeLabelIndex::Build(
            tree, hype::SubtreeLabelIndex::Mode::kFull)),
        compressed(hype::SubtreeLabelIndex::Build(
            tree, hype::SubtreeLabelIndex::Mode::kCompressed, 8)) {}
  std::vector<const hype::SubtreeLabelIndex*> all() const {
    return {nullptr, &full, &compressed};
  }
  hype::SubtreeLabelIndex full;
  hype::SubtreeLabelIndex compressed;
};

// Checks ShardedBatchEvaluator == solo HypeEvaluator at `context` for every
// (index mode x pool width x shard target) combination.
void CheckEquivalence(const xml::Tree& tree,
                      const std::vector<std::string>& queries,
                      xml::NodeId context) {
  std::vector<automata::Mfa> mfas = CompileAll(queries);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);

  common::ThreadPool pool(4);
  struct PoolSetup {
    common::ThreadPool* pool;
    int num_shards;
  };
  const PoolSetup setups[] = {
      {nullptr, 0}, {nullptr, 3}, {&pool, 0}, {&pool, 1}, {&pool, 16},
  };

  const IndexModes modes(tree);
  for (const hype::SubtreeLabelIndex* index : modes.all()) {
    const SoloRun solo = Solo(tree, mfas, index, context);
    for (const PoolSetup& setup : setups) {
      ShardedOptions options;
      options.index = index;
      options.pool = setup.pool;
      options.num_shards = setup.num_shards;
      ShardedBatchEvaluator sharded(tree, ptrs, options);
      ExpectMatchesSolo(
          sharded, context, solo, queries,
          "index=" + std::to_string(index != nullptr) +
              " pool=" +
              std::to_string(setup.pool != nullptr ? pool.num_threads() : 0) +
              " shards=" + std::to_string(setup.num_shards));
    }
  }
}

// Evaluates `queries` at the root over a 4-thread pool in every index mode,
// checks each run against solo HyPE, and returns stats().num_groups per
// mode -- which execution path the counts-only fan-out rule chose.
std::vector<int> PooledGroupsPerIndexMode(
    const xml::Tree& tree, const std::vector<std::string>& queries) {
  std::vector<automata::Mfa> mfas = CompileAll(queries);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);
  common::ThreadPool pool(4);
  const IndexModes modes(tree);
  std::vector<int> groups;
  for (const hype::SubtreeLabelIndex* index : modes.all()) {
    ShardedOptions options;
    options.index = index;
    options.pool = &pool;
    ShardedBatchEvaluator sharded(tree, ptrs, options);
    ExpectMatchesSolo(sharded, tree.root(),
                      Solo(tree, mfas, index, tree.root()), queries,
                      "index=" + std::to_string(index != nullptr));
    groups.push_back(sharded.stats().num_groups);
  }
  return groups;
}

TEST(ShardedEvalTest, FixedWorkloadAtRoot) {
  xml::Tree tree = Hospital(20, 7);
  CheckEquivalence(tree, FixedQueries(), tree.root());
}

TEST(ShardedEvalTest, FixedWorkloadAtNonRootContext) {
  xml::Tree tree = Hospital(12, 11);
  // Second department: a context whose spine is not the document root.
  xml::NodeId dept = tree.first_child(tree.root());
  while (dept != xml::kNullNode && !tree.is_element(dept)) {
    dept = tree.next_sibling(dept);
  }
  ASSERT_NE(dept, xml::kNullNode);
  xml::NodeId second = tree.next_sibling(dept);
  while (second != xml::kNullNode && !tree.is_element(second)) {
    second = tree.next_sibling(second);
  }
  ASSERT_NE(second, xml::kNullNode);
  CheckEquivalence(tree,
                   {"patient/pname", "patient[visit]/pname", "//diagnosis",
                    "patient/(parent/patient)*/pname", "."},
                   second);
}

TEST(ShardedEvalTest, RandomizedEquivalence) {
  xml::Tree tree = Hospital(10, 23);
  gen::QueryGenParams qparams;
  qparams.labels = {"department", "patient",    "pname",   "visit",
                    "treatment",  "medication", "test",    "diagnosis",
                    "doctor",     "parent",     "sibling", "address",
                    "city",       "name"};
  qparams.text_values = {"heart disease", "diabetes", "Edinburgh"};
  qparams.max_depth = 3;

  std::mt19937_64 rng(20260731);
  std::vector<std::string> queries;
  for (int i = 0; i < 48; ++i) {
    queries.push_back(xpath::ToString(gen::RandomQuery(qparams, &rng)));
  }
  CheckEquivalence(tree, queries, tree.root());
}

TEST(ShardedEvalTest, RepeatedEvalAllIsStableAndWarm) {
  xml::Tree tree = Hospital(8, 5);
  std::vector<automata::Mfa> mfas =
      CompileAll({"//diagnosis", "department/patient[visit]/pname"});
  std::vector<const automata::Mfa*> ptrs = {&mfas[0], &mfas[1]};
  common::ThreadPool pool(2);
  ShardedOptions options;
  options.pool = &pool;
  ShardedBatchEvaluator sharded(tree, ptrs, options);
  auto first = sharded.EvalAll(tree.root());
  auto second = sharded.EvalAll(tree.root());
  EXPECT_EQ(first, second);
  EXPECT_GT(sharded.stats().num_units, 0);
  EXPECT_GT(sharded.stats().num_groups, 0);
  EXPECT_EQ(sharded.stats().num_sharded_queries, 2);
}

TEST(ShardedEvalTest, DeepNarrowDocumentDegeneratesGracefully) {
  // A chain document has a single unit at every level: sharding must not
  // split what cannot be split, and the explicit-stack walk must survive the
  // depth.
  constexpr int kDepth = 50000;
  xml::Tree tree;
  xml::NodeId n = tree.AddRoot("a");
  for (int i = 0; i < kDepth; ++i) n = tree.AddElement(n, "a");
  tree.AddElement(n, "b");

  std::vector<automata::Mfa> mfas = CompileAll({"a*/b", "//b", "a*[b]"});
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  common::ThreadPool pool(4);
  ShardedOptions options;
  options.pool = &pool;
  ShardedBatchEvaluator sharded(tree, ptrs, options);
  std::vector<NodeVec> answers = sharded.EvalAll(tree.root());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].size(), 1u) << i;
  }
}

TEST(ShardedEvalTest, MatchesBatchEvaluatorOnWideFlatDocument) {
  // Many top-level subtrees, trivially shardable: compare against the
  // single-threaded batch evaluator directly.
  xml::Tree tree;
  xml::NodeId root = tree.AddRoot("r");
  for (int i = 0; i < 300; ++i) {
    xml::NodeId c = tree.AddElement(root, i % 3 == 0 ? "a" : "b");
    tree.AddElement(c, i % 2 == 0 ? "x" : "y");
  }
  std::vector<automata::Mfa> mfas = CompileAll({"a/x", "b/y", "//x", "."});
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  hype::BatchHypeEvaluator batch(tree, ptrs);
  std::vector<NodeVec> expected = batch.EvalAll(tree.root());

  common::ThreadPool pool(4);
  for (int shards : {1, 2, 7, 32}) {
    ShardedOptions options;
    options.pool = &pool;
    options.num_shards = shards;
    ShardedBatchEvaluator sharded(tree, ptrs, options);
    EXPECT_EQ(sharded.EvalAll(tree.root()), expected) << shards;
  }
}

// A batch whose whole weight (elements x queries) is within the fan-out
// budget can never predict more visits than that, so it must stay on the
// calling thread even with a pool available.
TEST(ShardedEvalTest, SmallBatchStaysInline) {
  xml::Tree tree = Hospital(3, 43);
  const std::vector<std::string> queries = FixedQueries();
  ASSERT_LE(int64_t{tree.CountElements()} *
                static_cast<int64_t>(queries.size()),
            ShardedBatchEvaluator::kFanOutBudget);
  for (int groups : PooledGroupsPerIndexMode(tree, queries)) {
    EXPECT_EQ(groups, 1);
  }
}

// A batch far past the budget must hand its remaining units (and the
// fallback) to pool helpers -- the path small suites would otherwise never
// reach -- and still match solo HyPE bit for bit.
TEST(ShardedEvalTest, LargeBatchFansOut) {
  xml::Tree tree = Hospital(400, 47);
  const std::vector<std::string> queries = FixedQueries();
  ASSERT_GT(int64_t{tree.CountElements()} *
                static_cast<int64_t>(queries.size()),
            8 * ShardedBatchEvaluator::kFanOutBudget);
  for (int groups : PooledGroupsPerIndexMode(tree, queries)) {
    EXPECT_GT(groups, 1);
  }
}

}  // namespace
}  // namespace smoqe::exec
