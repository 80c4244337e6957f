// OptHyPE / OptHyPE-C: the subtree-label index must preserve answers exactly
// while pruning at least as much as plain HyPE.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "xml/doc_plane.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace smoqe::hype {
namespace {

xml::Tree Doc(const char* text) {
  auto t = xml::ParseXml(text);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.take();
}

TEST(IndexTest, BuildFullMode) {
  xml::Tree t = Doc("<r><a><b/></a><c/></r>");
  SubtreeLabelIndex idx =
      SubtreeLabelIndex::Build(t, SubtreeLabelIndex::Mode::kFull);
  xml::DocPlane plane = xml::DocPlane::Build(t);
  int32_t root_set = idx.SetForContext(plane, plane.pos_of(t.root()));
  LabelId a = t.labels().Lookup("a");
  LabelId b = t.labels().Lookup("b");
  LabelId r = t.labels().Lookup("r");
  EXPECT_TRUE(idx.Contains(root_set, a));
  EXPECT_TRUE(idx.Contains(root_set, b));
  EXPECT_FALSE(idx.Contains(root_set, r));  // r is not *below* the root

  // The 'a' subtree contains only b below it.
  xml::NodeId node_a = t.first_child(t.root());
  int32_t a_set = idx.EffectiveSet(plane.pos_of(node_a), root_set);
  EXPECT_TRUE(idx.Contains(a_set, b));
  EXPECT_FALSE(idx.Contains(a_set, a));
  // Leaf subtrees have empty sets.
  xml::NodeId node_b = t.first_child(node_a);
  EXPECT_TRUE(idx.IsEmpty(idx.EffectiveSet(plane.pos_of(node_b), a_set)));
}

TEST(IndexTest, CompressedModeInheritsFromAncestors) {
  gen::HospitalParams params;
  params.patients = 30;
  params.seed = 12;
  xml::Tree t = gen::GenerateHospital(params);
  SubtreeLabelIndex full =
      SubtreeLabelIndex::Build(t, SubtreeLabelIndex::Mode::kFull);
  SubtreeLabelIndex compressed = SubtreeLabelIndex::Build(
      t, SubtreeLabelIndex::Mode::kCompressed, /*threshold=*/16);
  // Compressed index must be substantially smaller.
  EXPECT_LT(compressed.MemoryBytes(), full.MemoryBytes() / 2);

  // Compressed sets over-approximate full sets (soundness).
  xml::DocPlane plane = xml::DocPlane::Build(t);
  const int32_t root_pos = plane.pos_of(t.root());
  int32_t full_eff = full.SetForContext(plane, root_pos);
  int32_t comp_eff = compressed.SetForContext(plane, root_pos);
  std::vector<std::pair<xml::NodeId, std::pair<int32_t, int32_t>>> stack = {
      {t.root(), {full_eff, comp_eff}}};
  while (!stack.empty()) {
    auto [node, effs] = stack.back();
    stack.pop_back();
    auto [feff, ceff] = effs;
    for (LabelId l = 0; l < t.labels().size(); ++l) {
      if (full.Contains(feff, l)) {
        EXPECT_TRUE(compressed.Contains(ceff, l))
            << "compressed set lost label " << t.labels().name(l);
      }
    }
    for (xml::NodeId c = t.first_child(node); c != xml::kNullNode;
         c = t.next_sibling(c)) {
      if (!t.is_element(c)) continue;
      const int32_t pos = plane.pos_of(c);
      stack.push_back({c,
                       {full.EffectiveSet(pos, feff),
                        compressed.EffectiveSet(pos, ceff)}});
    }
  }
}

std::vector<xml::NodeId> RunWith(const xml::Tree& t, std::string_view q,
                                 const SubtreeLabelIndex* idx,
                                 EvalStats* stats = nullptr) {
  auto query = xpath::ParseQuery(q);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  automata::Mfa mfa = automata::CompileQuery(query.value());
  EvalOptions options;
  options.index = idx;
  HypeEvaluator eval(t, mfa, options);
  auto out = eval.Eval(t.root());
  if (stats != nullptr) *stats = eval.stats();
  return out;
}

class IndexEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexEquivalenceTest, OptHypeVariantsMatchPlainHype) {
  gen::HospitalParams params;
  params.patients = 40;
  params.seed = 14;
  params.heart_disease_prob = 0.2;
  xml::Tree t = gen::GenerateHospital(params);
  SubtreeLabelIndex full =
      SubtreeLabelIndex::Build(t, SubtreeLabelIndex::Mode::kFull);
  SubtreeLabelIndex compressed =
      SubtreeLabelIndex::Build(t, SubtreeLabelIndex::Mode::kCompressed, 16);

  EvalStats plain_stats, full_stats, comp_stats;
  auto plain = RunWith(t, GetParam(), nullptr, &plain_stats);
  auto opt = RunWith(t, GetParam(), &full, &full_stats);
  auto opt_c = RunWith(t, GetParam(), &compressed, &comp_stats);
  EXPECT_EQ(plain, opt) << GetParam();
  EXPECT_EQ(plain, opt_c) << GetParam();

  // The indexed variants never visit more nodes than plain HyPE, and the
  // compressed variant never prunes more than the full one.
  EXPECT_LE(full_stats.elements_visited, plain_stats.elements_visited);
  EXPECT_LE(comp_stats.elements_visited, plain_stats.elements_visited);
  EXPECT_GE(comp_stats.elements_visited, full_stats.elements_visited);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, IndexEquivalenceTest,
    ::testing::Values(
        "department/patient[visit/treatment/medication/diagnosis/"
        "text() = 'heart disease']/pname",
        "//medication[diagnosis]",
        "//patient[visit/treatment/test]",
        "department/patient/(parent/patient)*",
        "department/patient[not(visit/treatment/test)]",
        "//sibling//diagnosis",
        "department/patient[(parent/patient)*/visit/treatment/medication/"
        "diagnosis/text() = 'heart disease']",
        "//doctor[specialty/text() = 'cardiology']"));

TEST(IndexTest, IndexPrunesMoreOnSelectiveQueries) {
  gen::HospitalParams params;
  params.patients = 120;
  params.seed = 15;
  params.medication_prob = 0.3;  // most visits are tests -> no diagnosis
  xml::Tree t = gen::GenerateHospital(params);
  SubtreeLabelIndex full =
      SubtreeLabelIndex::Build(t, SubtreeLabelIndex::Mode::kFull);
  EvalStats plain_stats, opt_stats;
  const char* q = "department/patient[visit/treatment/medication/diagnosis/"
                  "text() = 'heart disease']/pname";
  auto a = RunWith(t, q, nullptr, &plain_stats);
  auto b = RunWith(t, q, &full, &opt_stats);
  EXPECT_EQ(a, b);
  EXPECT_LT(opt_stats.elements_visited, plain_stats.elements_visited);
}

TEST(IndexTest, NegationStaysCorrectUnderPruning) {
  // A NOT whose operand can never be true below a pruned subtree must still
  // evaluate to true: dropping the request treats it as false, and the NOT
  // is computed at the ancestor. Regression guard for the pruning rule.
  xml::Tree t = Doc(
      "<r><a><deep><x/></deep></a><a><deep><y/></deep></a></r>");
  SubtreeLabelIndex idx =
      SubtreeLabelIndex::Build(t, SubtreeLabelIndex::Mode::kFull);
  const char* q = "a[not(deep/x)]";
  auto plain = RunWith(t, q, nullptr);
  auto opt = RunWith(t, q, &idx);
  EXPECT_EQ(plain, opt);
  ASSERT_EQ(opt.size(), 1u);
}

TEST(IndexTest, Fig4WithIndexMatchesGolden) {
  gen::Fig4Tree fig = gen::MakeFig4Tree();
  SubtreeLabelIndex idx =
      SubtreeLabelIndex::Build(fig.tree, SubtreeLabelIndex::Mode::kFull);
  auto answers = RunWith(fig.tree, gen::kQueryExample41, &idx);
  std::vector<xml::NodeId> expected = {fig.ids[9], fig.ids[11]};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answers, expected);
}

TEST(IndexTest, EvalFromMidTreeContext) {
  gen::Fig4Tree fig = gen::MakeFig4Tree();
  SubtreeLabelIndex full =
      SubtreeLabelIndex::Build(fig.tree, SubtreeLabelIndex::Mode::kFull);
  SubtreeLabelIndex compressed = SubtreeLabelIndex::Build(
      fig.tree, SubtreeLabelIndex::Mode::kCompressed, 4);
  auto query = xpath::ParseQuery("(parent/patient)*/record/diagnosis");
  ASSERT_TRUE(query.ok());
  automata::Mfa mfa = automata::CompileQuery(query.value());
  for (const SubtreeLabelIndex* idx : {&full, &compressed}) {
    EvalOptions options;
    options.index = idx;
    HypeEvaluator with_idx(fig.tree, mfa, options);
    HypeEvaluator without(fig.tree, mfa);
    EXPECT_EQ(with_idx.Eval(fig.ids[9]), without.Eval(fig.ids[9]));
    EXPECT_EQ(with_idx.Eval(fig.ids[2]), without.Eval(fig.ids[2]));
  }
}

// Compressed-mode SetForContext is a pure read: a bounded walk up the plane
// over arrays fixed at Build, with no lazily grown state. Shard workers
// resolve the same contexts concurrently, so hammer one index from many
// threads over shuffled contexts and compare every result against a
// sequentially queried twin. Under TSan (the `concurrency` CI job) any
// write on the lookup path would show up as a race.
TEST(IndexTest, ConcurrentSetForContextMatchesSequential) {
  gen::HospitalParams params;
  params.patients = 40;
  params.seed = 91;
  xml::Tree t = gen::GenerateHospital(params);

  SubtreeLabelIndex oracle = SubtreeLabelIndex::Build(
      t, SubtreeLabelIndex::Mode::kCompressed, /*threshold=*/16);
  xml::DocPlane plane = xml::DocPlane::Build(t);
  std::vector<int32_t> expected(t.size(), -1);
  for (xml::NodeId id = 0; id < t.size(); ++id) {
    if (t.is_element(id)) {
      expected[id] = oracle.SetForContext(plane, plane.pos_of(id));
    }
  }

  SubtreeLabelIndex shared = SubtreeLabelIndex::Build(
      t, SubtreeLabelIndex::Mode::kCompressed, /*threshold=*/16);
  std::vector<xml::NodeId> contexts;
  for (xml::NodeId id = 0; id < t.size(); ++id) {
    if (t.is_element(id)) contexts.push_back(id);
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Per-thread shuffle: every thread resolves every context, in a
      // different order, so lookups of the same positions interleave.
      std::vector<xml::NodeId> mine = contexts;
      std::mt19937_64 rng(1000 + w);
      std::shuffle(mine.begin(), mine.end(), rng);
      for (int round = 0; round < 3; ++round) {
        for (xml::NodeId id : mine) {
          if (shared.SetForContext(plane, plane.pos_of(id)) != expected[id]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace smoqe::hype
