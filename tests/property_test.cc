// Randomized property tests: all engines agree on random documents x random
// queries; rewriting agrees with materialize-then-evaluate on random view
// queries. Seeds are fixed, so failures reproduce.

#include <gtest/gtest.h>

#include "automata/compiler.h"
#include "automata/conceptual_eval.h"
#include "dtd/dtd_parser.h"
#include "eval/galax_substitute.h"
#include "eval/naive_evaluator.h"
#include "eval/xpath_baseline.h"
#include "gen/fixtures.h"
#include "gen/generic_generator.h"
#include "gen/hospital_generator.h"
#include "gen/query_generator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "rewrite/direct_rewriter.h"
#include "rewrite/rewriter.h"
#include "view/materializer.h"
#include "xpath/printer.h"
#include "xpath/x_fragment.h"

namespace smoqe {
namespace {

dtd::Dtd TestDtd() {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a* , b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return d.take();
}

// All engines on one (tree, query) pair; returns the naive answer.
void CheckAllEngines(const xml::Tree& tree, const xpath::PathPtr& query) {
  eval::NaiveEvaluator naive(tree);
  eval::NodeSet expected = naive.Eval(query, tree.root());

  automata::Mfa mfa = automata::CompileQuery(query);
  ASSERT_TRUE(automata::CheckWellFormed(mfa).empty())
      << xpath::ToString(query);
  EXPECT_TRUE(automata::HasSplitProperty(mfa)) << xpath::ToString(query);

  hype::HypeEvaluator hype_eval(tree, mfa);
  EXPECT_EQ(hype_eval.Eval(tree.root()), expected)
      << "HyPE disagrees on " << xpath::ToString(query);

  hype::SubtreeLabelIndex full =
      hype::SubtreeLabelIndex::Build(tree, hype::SubtreeLabelIndex::Mode::kFull);
  hype::EvalOptions opt;
  opt.index = &full;
  hype::HypeEvaluator opt_eval(tree, mfa, opt);
  EXPECT_EQ(opt_eval.Eval(tree.root()), expected)
      << "OptHyPE disagrees on " << xpath::ToString(query);

  hype::SubtreeLabelIndex compressed = hype::SubtreeLabelIndex::Build(
      tree, hype::SubtreeLabelIndex::Mode::kCompressed, 8);
  hype::EvalOptions optc;
  optc.index = &compressed;
  hype::HypeEvaluator optc_eval(tree, mfa, optc);
  EXPECT_EQ(optc_eval.Eval(tree.root()), expected)
      << "OptHyPE-C disagrees on " << xpath::ToString(query);

  automata::ConceptualEvaluator conceptual(tree, mfa);
  EXPECT_EQ(conceptual.Eval(tree.root()), expected)
      << "conceptual eval disagrees on " << xpath::ToString(query);

  eval::GalaxSubstitute galax(tree);
  EXPECT_EQ(galax.Eval(query, tree.root()), expected)
      << "galax substitute disagrees on " << xpath::ToString(query);

  if (xpath::IsInXFragment(query) && !xpath::UsesPosition(query)) {
    eval::XPathBaseline baseline(tree);
    auto r = baseline.Eval(query, tree.root());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), expected)
        << "xpath baseline disagrees on " << xpath::ToString(query);
  }
}

class EngineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineAgreementTest, RandomTreesAndQueries) {
  const int round = GetParam();
  dtd::Dtd d = TestDtd();
  gen::GenericParams tree_params;
  tree_params.seed = 1000 + round;
  tree_params.star_max = 3;
  tree_params.soft_depth = 6;
  auto tree = gen::GenerateFromDtd(d, tree_params);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  gen::QueryGenParams qparams;
  qparams.labels = {"a", "b", "c", "t", "r"};
  qparams.text_values = {"alpha", "beta"};
  qparams.allow_position = true;
  std::mt19937_64 rng(5000 + round);
  for (int i = 0; i < 25; ++i) {
    xpath::PathPtr query = gen::RandomQuery(qparams, &rng);
    CheckAllEngines(tree.value(), query);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, EngineAgreementTest, ::testing::Range(0, 8));

class RewritePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RewritePropertyTest, RewriteAgreesWithMaterialization) {
  const int round = GetParam();
  view::ViewDef def = gen::HospitalView();
  gen::HospitalParams hp;
  hp.patients = 12;
  hp.seed = 300 + round;
  hp.heart_disease_prob = 0.4;
  xml::Tree source = gen::GenerateHospital(hp);
  auto mat = view::Materialize(def, source);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  gen::QueryGenParams qparams;
  qparams.labels = {"patient", "parent", "record", "empty", "diagnosis",
                    "hospital"};
  qparams.text_values = {"heart disease", "lung disease"};
  qparams.allow_position = false;
  qparams.max_depth = 3;
  std::mt19937_64 rng(900 + round);

  eval::NaiveEvaluator on_view(mat.value().tree);
  for (int i = 0; i < 12; ++i) {
    xpath::PathPtr query = gen::RandomQuery(qparams, &rng);
    eval::NodeSet view_nodes =
        on_view.Eval(query, mat.value().tree.root());
    std::vector<xml::NodeId> expected =
        view::MapToSource(mat.value(), view_nodes);

    auto mfa = rewrite::RewriteToMfa(query, def);
    ASSERT_TRUE(mfa.ok()) << xpath::ToString(query) << ": "
                          << mfa.status().ToString();
    hype::HypeEvaluator hype_eval(source, mfa.value());
    EXPECT_EQ(hype_eval.Eval(source.root()), expected)
        << "MFA rewriting disagrees on " << xpath::ToString(query);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, RewritePropertyTest, ::testing::Range(0, 6));

class DirectRewritePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DirectRewritePropertyTest, DirectRewriteAgreesToo) {
  const int round = GetParam();
  view::ViewDef def = gen::HospitalView();
  gen::HospitalParams hp;
  hp.patients = 8;
  hp.seed = 700 + round;
  hp.heart_disease_prob = 0.4;
  xml::Tree source = gen::GenerateHospital(hp);
  auto mat = view::Materialize(def, source);
  ASSERT_TRUE(mat.ok());

  gen::QueryGenParams qparams;
  qparams.labels = {"patient", "parent", "record", "diagnosis"};
  qparams.text_values = {"heart disease"};
  qparams.max_depth = 2;  // keep the explicit rewriting small
  std::mt19937_64 rng(1300 + round);

  eval::NaiveEvaluator on_view(mat.value().tree);
  eval::NaiveEvaluator on_source(source);
  for (int i = 0; i < 8; ++i) {
    xpath::PathPtr query = gen::RandomQuery(qparams, &rng);
    std::vector<xml::NodeId> expected = view::MapToSource(
        mat.value(), on_view.Eval(query, mat.value().tree.root()));
    auto direct = rewrite::DirectRewrite(query, def);
    ASSERT_TRUE(direct.ok()) << xpath::ToString(query);
    EXPECT_EQ(on_source.Eval(direct.value(), source.root()), expected)
        << "direct rewriting disagrees on " << xpath::ToString(query);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, DirectRewritePropertyTest,
                         ::testing::Range(0, 4));

TEST(PropertyTest, EvalAtEveryContextNode) {
  // HyPE must agree with naive at arbitrary context nodes, not just the root.
  dtd::Dtd d = TestDtd();
  gen::GenericParams tree_params;
  tree_params.seed = 77;
  auto tree = gen::GenerateFromDtd(d, tree_params);
  ASSERT_TRUE(tree.ok());
  const xml::Tree& t = tree.value();
  gen::QueryGenParams qparams;
  qparams.labels = {"a", "b", "c"};
  std::mt19937_64 rng(88);
  eval::NaiveEvaluator naive(t);
  for (int i = 0; i < 10; ++i) {
    xpath::PathPtr query = gen::RandomQuery(qparams, &rng);
    automata::Mfa mfa = automata::CompileQuery(query);
    hype::HypeEvaluator hype_eval(t, mfa);
    for (xml::NodeId n = 0; n < t.size(); n += 7) {
      if (!t.is_element(n)) continue;
      EXPECT_EQ(hype_eval.Eval(n), naive.Eval(query, n))
          << xpath::ToString(query) << " at node " << n;
    }
  }
}

}  // namespace
}  // namespace smoqe
