// BatchHypeEvaluator correctness: a batch evaluated in one shared pass must
// answer exactly like per-query HypeEvaluator runs, which in turn must match
// the NaiveEvaluator oracle -- across batch sizes, with and without the
// subtree-label index, on fixed and randomized query workloads. Also the
// explicit-stack regression: documents ≥ 100k deep must evaluate without
// stack overflow (the recursive Visit of the old evaluator could not).

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "eval/naive_evaluator.h"
#include "gen/hospital_generator.h"
#include "gen/query_generator.h"
#include "hype/batch_hype.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "xml/parser.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe::hype {
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

// Runs every (batch size x index mode) combination over `queries` and checks
// batched == per-query HyPE == naive for every query.
void CheckEquivalence(const xml::Tree& tree,
                      const std::vector<std::string>& queries,
                      const std::vector<int>& batch_sizes) {
  std::vector<automata::Mfa> mfas = CompileAll(queries);

  // Oracles, computed once per query.
  eval::NaiveEvaluator naive(tree);
  std::vector<NodeVec> expected;
  for (const std::string& q : queries) {
    auto parsed = xpath::ParseQuery(q);
    ASSERT_TRUE(parsed.ok());
    expected.push_back(naive.Eval(parsed.value(), tree.root()));
  }

  SubtreeLabelIndex full =
      SubtreeLabelIndex::Build(tree, SubtreeLabelIndex::Mode::kFull);
  SubtreeLabelIndex compressed =
      SubtreeLabelIndex::Build(tree, SubtreeLabelIndex::Mode::kCompressed, 8);
  const SubtreeLabelIndex* indexes[] = {nullptr, &full, &compressed};

  for (const SubtreeLabelIndex* index : indexes) {
    // Per-query HyPE must agree with naive.
    EvalOptions solo_options;
    solo_options.index = index;
    std::vector<NodeVec> solo;
    for (size_t i = 0; i < mfas.size(); ++i) {
      HypeEvaluator eval(tree, mfas[i], solo_options);
      solo.push_back(eval.Eval(tree.root()));
      ASSERT_EQ(solo.back(), expected[i])
          << "solo HyPE vs naive, query " << queries[i]
          << " index=" << (index != nullptr);
    }

    // Batched must agree with per-query, for every partition into batches.
    for (int batch_size : batch_sizes) {
      for (size_t begin = 0; begin < mfas.size();
           begin += static_cast<size_t>(batch_size)) {
        size_t end = std::min(mfas.size(), begin + batch_size);
        std::vector<const automata::Mfa*> slice;
        for (size_t i = begin; i < end; ++i) slice.push_back(&mfas[i]);

        EvalOptions options;
        options.index = index;
        BatchHypeEvaluator batch(tree, slice, options);
        std::vector<NodeVec> answers = batch.EvalAll(tree.root());
        ASSERT_EQ(answers.size(), slice.size());
        for (size_t i = begin; i < end; ++i) {
          EXPECT_EQ(answers[i - begin], solo[i])
              << "batched vs solo, query " << queries[i] << " batch_size "
              << batch_size << " index=" << (index != nullptr);
        }
      }
    }
  }
}

TEST(BatchHypeTest, FixedHospitalWorkloadAllBatchSizes) {
  xml::Tree tree = Hospital(20, 7);
  std::vector<std::string> queries = {
      "department/patient/pname",
      "department/patient[visit]/pname",
      "//diagnosis",
      "//patient[visit/treatment/medication]",
      "department/patient[visit/treatment/test]/pname",
      "department/patient/(parent/patient)*"
      "[visit/treatment/medication/diagnosis/text() = 'heart disease']",
      "department/patient[not(visit/treatment/test)]",
      "//doctor/specialty",
      "department/*/visit",
      "department/patient[visit/treatment/medication/diagnosis/"
      "text() = 'heart disease' or visit/treatment/test]",
      "missing_label",
      ".",
      "department/patient/visit/treatment/(medication | test)/type",
      "//treatment[medication and not(test)]",
      "(department)*/patient/sibling",
      "department/patient[address/city/text() = 'Edinburgh']/pname",
  };
  CheckEquivalence(tree, queries, {1, 4, 16});
}

TEST(BatchHypeTest, RandomizedEquivalenceSuite) {
  xml::Tree tree = Hospital(10, 23);
  gen::QueryGenParams qparams;
  qparams.labels = {"department", "patient", "pname",     "visit",
                    "treatment",  "medication", "test",   "diagnosis",
                    "doctor",     "parent",     "sibling", "address",
                    "city",       "name"};
  qparams.text_values = {"heart disease", "diabetes", "Edinburgh"};
  qparams.max_depth = 3;

  std::mt19937_64 rng(20260730);
  std::vector<std::string> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(xpath::ToString(gen::RandomQuery(qparams, &rng)));
  }
  CheckEquivalence(tree, queries, {1, 4, 16, 64});
}

TEST(BatchHypeTest, DeadQueryDoesNotDisturbTheBatch) {
  xml::Tree tree = Hospital(5, 3);
  // The middle query matches nothing (label absent from the document): its
  // engine never starts, the others must be unaffected.
  CheckEquivalence(tree,
                   {"//diagnosis", "nonexistent/label", "department/patient"},
                   {3});
}

TEST(BatchHypeTest, EvalAllIsRepeatable) {
  xml::Tree tree = Hospital(8, 5);
  std::vector<std::string> queries = {"//diagnosis",
                                      "department/patient[visit]/pname"};
  std::vector<automata::Mfa> mfas = CompileAll(queries);
  BatchHypeEvaluator batch(tree, {&mfas[0], &mfas[1]});
  auto first = batch.EvalAll(tree.root());
  auto second = batch.EvalAll(tree.root());
  EXPECT_EQ(first, second);
}

TEST(BatchHypeTest, PerEngineStatsMatchSoloRuns) {
  xml::Tree tree = Hospital(12, 9);
  std::vector<std::string> queries = {
      "department/patient/pname",
      "department/patient[visit/treatment/test]/pname",
      "//diagnosis",
  };
  std::vector<automata::Mfa> mfas = CompileAll(queries);
  std::vector<const automata::Mfa*> ptrs = {&mfas[0], &mfas[1], &mfas[2]};
  BatchHypeEvaluator batch(tree, ptrs);
  batch.EvalAll(tree.root());

  int64_t visited_sum = 0;
  for (size_t i = 0; i < mfas.size(); ++i) {
    HypeEvaluator solo(tree, mfas[i]);
    solo.Eval(tree.root());
    EXPECT_EQ(batch.stats(i).elements_visited, solo.stats().elements_visited)
        << queries[i];
    EXPECT_EQ(batch.stats(i).cans_vertices, solo.stats().cans_vertices)
        << queries[i];
    visited_sum += solo.stats().elements_visited;
  }
  // The shared walk enters each needed node once; the solo passes re-enter
  // shared nodes per query.
  EXPECT_LE(batch.pass_stats().nodes_walked, visited_sum);
  EXPECT_GT(batch.pass_stats().nodes_walked, 0);
}

// Satellite regression for the explicit-stack traversal: the old recursive
// Visit overflowed the stack near depth ~100k; the iterative driver must
// handle arbitrarily deep documents, solo and batched, with and without cans
// regions (filters) active along the whole spine.
TEST(BatchHypeTest, DeepDocumentExplicitStackRegression) {
  constexpr int kDepth = 120000;
  xml::Tree tree;
  xml::NodeId n = tree.AddRoot("a");
  for (int i = 0; i < kDepth; ++i) n = tree.AddElement(n, "a");
  tree.AddElement(n, "b");

  // ".[a]/a*/b" opens a cans region at the root and then runs a 120k-deep
  // barren chain through it (exercises edge-mapping composition).
  std::vector<std::string> queries = {"a*/b", "//b", "a*[b]", "//a[b]/b",
                                      ".[a]/a*/b"};
  std::vector<automata::Mfa> mfas = CompileAll(queries);

  for (size_t i = 0; i < mfas.size(); ++i) {
    HypeEvaluator solo(tree, mfas[i]);
    EXPECT_EQ(solo.Eval(tree.root()).size(), 1u) << queries[i];
  }

  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  BatchHypeEvaluator batch(tree, ptrs);
  std::vector<NodeVec> answers = batch.EvalAll(tree.root());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].size(), 1u) << queries[i];
  }
}

}  // namespace
}  // namespace smoqe::hype
