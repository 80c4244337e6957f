// TrimMfa: semantics-preserving dead-state elimination.

#include <gtest/gtest.h>

#include "automata/compiler.h"
#include "automata/optimizer.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/generic_generator.h"
#include "gen/hospital_generator.h"
#include "gen/query_generator.h"
#include "dtd/dtd_parser.h"
#include "hype/hype.h"
#include "rewrite/rewriter.h"
#include "xml/parser.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe::automata {
namespace {

TEST(TrimTest, WellFormedAndSplitPreserved) {
  auto q = xpath::ParseQuery(gen::kQueryExample41);
  ASSERT_TRUE(q.ok());
  Mfa mfa = CompileQuery(q.value());
  TrimStats stats;
  Mfa trimmed = TrimMfa(mfa, &stats);
  EXPECT_TRUE(CheckWellFormed(trimmed).empty());
  EXPECT_TRUE(HasSplitProperty(trimmed));
  EXPECT_LE(stats.nfa_after, stats.nfa_before);
  EXPECT_LE(stats.afa_after, stats.afa_before);
}

TEST(TrimTest, RewrittenMfaShrinks) {
  // A union branch stepping to a label absent from the view leaves a product
  // state that cannot reach acceptance; the trimmer must remove it.
  view::ViewDef def = gen::HospitalView();
  auto q = xpath::ParseQuery("patient/(sibling/diagnosis | record/diagnosis)");
  ASSERT_TRUE(q.ok());
  auto mfa = rewrite::RewriteToMfa(q.value(), def);
  ASSERT_TRUE(mfa.ok());
  TrimStats stats;
  Mfa trimmed = TrimMfa(mfa.value(), &stats);
  EXPECT_LT(stats.nfa_after, stats.nfa_before);
  EXPECT_LT(trimmed.SizeMeasure(), mfa.value().SizeMeasure());
  EXPECT_TRUE(CheckWellFormed(trimmed).empty());

  // The running-example rewriting is already fully live -- the worklist
  // product only creates reachable states -- so trimming is the identity.
  auto q2 = xpath::ParseQuery(gen::kQueryExample11);
  ASSERT_TRUE(q2.ok());
  auto mfa2 = rewrite::RewriteToMfa(q2.value(), def);
  ASSERT_TRUE(mfa2.ok());
  EXPECT_LE(TrimMfa(mfa2.value()).SizeMeasure(), mfa2.value().SizeMeasure());
}

TEST(TrimTest, EmptyLanguageStillWellFormed) {
  auto q = xpath::ParseQuery(".[not(.)]");
  ASSERT_TRUE(q.ok());
  Mfa trimmed = TrimMfa(CompileQuery(q.value()));
  EXPECT_TRUE(CheckWellFormed(trimmed).empty());
  auto t = xml::ParseXml("<a><b/></a>");
  ASSERT_TRUE(t.ok());
  hype::HypeEvaluator eval(t.value(), trimmed);
  EXPECT_TRUE(eval.Eval(t.value().root()).empty());
}

TEST(TrimTest, PreservesAnswersOnPaperExamples) {
  gen::Fig4Tree fig = gen::MakeFig4Tree();
  for (const char* qs :
       {gen::kQueryExample41, "patient[record]", "//diagnosis",
        "(patient/parent)*/patient"}) {
    auto q = xpath::ParseQuery(qs);
    ASSERT_TRUE(q.ok());
    Mfa original = CompileQuery(q.value());
    Mfa trimmed = TrimMfa(original);
    hype::HypeEvaluator before(fig.tree, original);
    hype::HypeEvaluator after(fig.tree, trimmed);
    EXPECT_EQ(before.Eval(fig.tree.root()), after.Eval(fig.tree.root())) << qs;
  }
}

class TrimPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TrimPropertyTest, RandomQueriesUnchangedSemantics) {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  ASSERT_TRUE(d.ok());
  gen::GenericParams tp;
  tp.seed = 2100 + GetParam();
  auto tree = gen::GenerateFromDtd(d.value(), tp);
  ASSERT_TRUE(tree.ok());
  gen::QueryGenParams qp;
  qp.labels = {"a", "b", "c", "t"};
  qp.text_values = {"alpha"};
  std::mt19937_64 rng(3100 + GetParam());
  eval::NaiveEvaluator naive(tree.value());
  for (int i = 0; i < 20; ++i) {
    xpath::PathPtr q = gen::RandomQuery(qp, &rng);
    Mfa trimmed = TrimMfa(CompileQuery(q));
    ASSERT_TRUE(CheckWellFormed(trimmed).empty()) << xpath::ToString(q);
    hype::HypeEvaluator eval(tree.value(), trimmed);
    EXPECT_EQ(eval.Eval(tree.value().root()),
              naive.Eval(q, tree.value().root()))
        << xpath::ToString(q);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, TrimPropertyTest, ::testing::Range(0, 4));

// Randomized optimized ≡ unoptimized property suite: the trimmed MFA must
// answer EXACTLY like the automaton it came from on every generator tree --
// compared directly against the unoptimized evaluation (not just against a
// reference evaluator), in plain and both indexed modes -- and every trim
// must preserve well-formedness and the split property (Theorem 4.1), which
// all evaluators rely on for the stratified operator fixpoint.
class TrimEquivalencePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TrimEquivalencePropertyTest, OptimizedEqualsUnoptimizedEverywhere) {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  ASSERT_TRUE(d.ok());
  gen::GenericParams tp;
  tp.seed = 5200 + GetParam();
  auto tree = gen::GenerateFromDtd(d.value(), tp);
  ASSERT_TRUE(tree.ok());
  const xml::Tree& t = tree.value();
  hype::SubtreeLabelIndex full =
      hype::SubtreeLabelIndex::Build(t, hype::SubtreeLabelIndex::Mode::kFull);
  hype::SubtreeLabelIndex compressed = hype::SubtreeLabelIndex::Build(
      t, hype::SubtreeLabelIndex::Mode::kCompressed, 4);

  gen::QueryGenParams qp;
  qp.labels = {"a", "b", "c", "t"};
  qp.text_values = {"alpha", "beta"};
  std::mt19937_64 rng(6200 + GetParam());
  for (int i = 0; i < 15; ++i) {
    xpath::PathPtr q = gen::RandomQuery(qp, &rng);
    Mfa original = CompileQuery(q);
    ASSERT_TRUE(HasSplitProperty(original)) << xpath::ToString(q);
    Mfa trimmed = TrimMfa(original);
    EXPECT_TRUE(CheckWellFormed(trimmed).empty()) << xpath::ToString(q);
    EXPECT_TRUE(HasSplitProperty(trimmed)) << xpath::ToString(q);
    EXPECT_LE(trimmed.SizeMeasure(), original.SizeMeasure());

    const hype::SubtreeLabelIndex* modes[] = {nullptr, &full, &compressed};
    for (const hype::SubtreeLabelIndex* index : modes) {
      hype::EvalOptions options;
      options.index = index;
      hype::HypeEvaluator before(t, original, options);
      hype::HypeEvaluator after(t, trimmed, options);
      EXPECT_EQ(before.Eval(t.root()), after.Eval(t.root()))
          << xpath::ToString(q) << " (index mode "
          << (index == nullptr ? "none" : (index == &full ? "full" : "compressed"))
          << ")";
    }
  }
}

TEST_P(TrimEquivalencePropertyTest, RewrittenMfasStayEquivalentAfterTrim) {
  view::ViewDef def = gen::HospitalView();
  gen::HospitalParams hp;
  hp.patients = 12;
  hp.seed = 7300 + GetParam();
  hp.heart_disease_prob = 0.4;
  xml::Tree source = gen::GenerateHospital(hp);

  gen::QueryGenParams qp;
  qp.labels = {"patient", "parent", "record", "diagnosis", "visit"};
  qp.text_values = {"heart disease"};
  std::mt19937_64 rng(8300 + GetParam());
  int compared = 0;
  for (int i = 0; i < 20; ++i) {
    xpath::PathPtr q = gen::RandomQuery(qp, &rng);
    auto mfa = rewrite::RewriteToMfa(q, def);
    if (!mfa.ok()) continue;  // e.g. not rewritable over this view
    Mfa trimmed = TrimMfa(mfa.value());
    EXPECT_TRUE(CheckWellFormed(trimmed).empty()) << xpath::ToString(q);
    EXPECT_TRUE(HasSplitProperty(trimmed)) << xpath::ToString(q);
    hype::HypeEvaluator before(source, mfa.value());
    hype::HypeEvaluator after(source, trimmed);
    EXPECT_EQ(before.Eval(source.root()), after.Eval(source.root()))
        << xpath::ToString(q);
    ++compared;
  }
  EXPECT_GT(compared, 0) << "no rewritable query in 20 draws";
}

INSTANTIATE_TEST_SUITE_P(Rounds, TrimEquivalencePropertyTest,
                         ::testing::Range(0, 4));

TEST(TrimTest, RewrittenAndTrimmedAgreeOnHospital) {
  view::ViewDef def = gen::HospitalView();
  gen::HospitalParams hp;
  hp.patients = 20;
  hp.seed = 91;
  hp.heart_disease_prob = 0.3;
  xml::Tree source = gen::GenerateHospital(hp);
  for (const char* qs :
       {gen::kQueryExample11, "//record", "patient[not(parent)]"}) {
    auto q = xpath::ParseQuery(qs);
    ASSERT_TRUE(q.ok());
    auto mfa = rewrite::RewriteToMfa(q.value(), def);
    ASSERT_TRUE(mfa.ok());
    Mfa trimmed = TrimMfa(mfa.value());
    hype::HypeEvaluator before(source, mfa.value());
    hype::HypeEvaluator after(source, trimmed);
    EXPECT_EQ(before.Eval(source.root()), after.Eval(source.root())) << qs;
  }
}

}  // namespace
}  // namespace smoqe::automata
