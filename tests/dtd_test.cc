#include <gtest/gtest.h>

#include "dtd/dtd.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "gen/fixtures.h"
#include "mutation_fuzz.h"
#include "xml/parser.h"

namespace smoqe::dtd {
namespace {

TEST(DtdParserTest, ParsesHospitalDtd) {
  auto dtd = ParseDtd(gen::kHospitalDtdText);
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  const Dtd& d = dtd.value();
  EXPECT_EQ(d.type_name(d.root()), "hospital");
  EXPECT_EQ(d.num_types(), 21);
  EXPECT_TRUE(d.IsRecursive());

  TypeId patient = d.FindType("patient");
  ASSERT_NE(patient, kNoType);
  const Production& p = d.production(patient);
  EXPECT_EQ(p.kind, ContentKind::kSequence);
  ASSERT_EQ(p.children.size(), 5u);
  EXPECT_FALSE(p.children[0].starred);  // pname
  EXPECT_TRUE(p.children[2].starred);   // visit*

  TypeId treatment = d.FindType("treatment");
  EXPECT_EQ(d.production(treatment).kind, ContentKind::kChoice);
}

TEST(DtdParserTest, ViewDtdIsRecursive) {
  auto dtd = ParseDtd(gen::kHospitalViewDtdText);
  ASSERT_TRUE(dtd.ok());
  EXPECT_TRUE(dtd.value().IsRecursive());
  EXPECT_EQ(dtd.value().num_types(), 6);
}

TEST(DtdParserTest, NonRecursiveDtd) {
  auto dtd = ParseDtd("dtd a { a -> b* ; b -> #text ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(dtd.value().IsRecursive());
}

TEST(DtdParserTest, TextEmptyAndChoice) {
  auto dtd = ParseDtd(
      "dtd r { r -> x, y ; x -> a + b* ; a -> #text ; b -> #empty ; "
      "y -> #empty ; }");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  const Dtd& d = dtd.value();
  EXPECT_EQ(d.production(d.FindType("a")).kind, ContentKind::kText);
  EXPECT_EQ(d.production(d.FindType("b")).kind, ContentKind::kEmpty);
  EXPECT_TRUE(d.production(d.FindType("x")).children[1].starred);
}

TEST(DtdParserTest, MissingProductionIsError) {
  auto dtd = ParseDtd("dtd a { a -> b ; }");
  ASSERT_FALSE(dtd.ok());
  EXPECT_NE(dtd.status().message().find("no production"), std::string::npos);
}

TEST(DtdParserTest, DuplicateProductionIsError) {
  auto dtd = ParseDtd("dtd a { a -> #text ; a -> #empty ; }");
  ASSERT_FALSE(dtd.ok());
}

TEST(DtdParserTest, MixedOperatorsAreError) {
  auto dtd = ParseDtd("dtd a { a -> b, c + d ; b -> #text ; c -> #text ; d -> #text ; }");
  ASSERT_FALSE(dtd.ok());
}

TEST(DtdParserTest, SingleBranchChoiceIsSequence) {
  // "a -> b" parses as a one-element sequence, not a disjunction.
  auto dtd = ParseDtd("dtd a { a -> b ; b -> #text ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(dtd.value().production(dtd.value().root()).kind,
            ContentKind::kSequence);
}

TEST(DtdParserTest, CommentsAllowed) {
  auto dtd = ParseDtd("dtd a { // root\n a -> #text ; // done\n }");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
}

TEST(DtdGraphTest, ChildTypesAndEdges) {
  Dtd d = gen::HospitalDtd();
  TypeId patient = d.FindType("patient");
  TypeId parent = d.FindType("parent");
  EXPECT_TRUE(d.HasEdge(patient, parent));
  EXPECT_TRUE(d.HasEdge(parent, patient));  // the recursion
  EXPECT_FALSE(d.HasEdge(d.FindType("doctor"), patient));
  EXPECT_EQ(d.ChildTypes(patient).size(), 5u);
}

TEST(DtdGraphTest, DescendantTypes) {
  Dtd d = gen::HospitalDtd();
  auto reach = d.DescendantTypes();
  TypeId hospital = d.root();
  TypeId diagnosis = d.FindType("diagnosis");
  TypeId patient = d.FindType("patient");
  EXPECT_TRUE(reach[hospital][diagnosis]);
  EXPECT_TRUE(reach[patient][patient]);  // recursive type reaches itself
  EXPECT_FALSE(reach[diagnosis][hospital]);
}

TEST(DtdGraphTest, SizeMeasurePositive) {
  Dtd d = gen::HospitalDtd();
  EXPECT_GT(d.SizeMeasure(), d.num_types());
}

TEST(ValidatorTest, AcceptsConformingDocument) {
  Dtd d = gen::HospitalDtd();
  auto t = xml::ParseXml(
      "<hospital><department><name>cardio</name>"
      "<address><street>1 Way</street><city>E</city><zip>1</zip></address>"
      "<patient><pname>p</pname>"
      "<address><street>2 Way</street><city>E</city><zip>2</zip></address>"
      "<visit><date>2006-01-01</date><treatment><medication><type>m</type>"
      "<diagnosis>heart disease</diagnosis></medication></treatment>"
      "<doctor><dname>d</dname><specialty>cardiology</specialty></doctor>"
      "</visit></patient></department></hospital>");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(ValidateDocument(d, t.value()).ok())
      << ValidateDocument(d, t.value()).ToString();
}

TEST(ValidatorTest, WrongRootRejected) {
  Dtd d = gen::HospitalDtd();
  auto t = xml::ParseXml("<patient/>");
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(ValidateDocument(d, t.value()).ok());
}

TEST(ValidatorTest, MissingRequiredChildRejected) {
  Dtd d = gen::HospitalDtd();
  // department lacks name and address.
  auto t = xml::ParseXml("<hospital><department/></hospital>");
  ASSERT_TRUE(t.ok());
  Status s = ValidateDocument(d, t.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("expected child"), std::string::npos);
}

TEST(ValidatorTest, SequenceOrderEnforced) {
  auto dtd = ParseDtd("dtd r { r -> a, b ; a -> #empty ; b -> #empty ; }");
  ASSERT_TRUE(dtd.ok());
  auto good = xml::ParseXml("<r><a/><b/></r>");
  auto bad = xml::ParseXml("<r><b/><a/></r>");
  EXPECT_TRUE(ValidateDocument(dtd.value(), good.value()).ok());
  EXPECT_FALSE(ValidateDocument(dtd.value(), bad.value()).ok());
}

TEST(ValidatorTest, ChoiceExactlyOneBranch) {
  auto dtd = ParseDtd("dtd r { r -> a + b ; a -> #empty ; b -> #empty ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_TRUE(ValidateDocument(dtd.value(),
                               xml::ParseXml("<r><a/></r>").value()).ok());
  EXPECT_TRUE(ValidateDocument(dtd.value(),
                               xml::ParseXml("<r><b/></r>").value()).ok());
  EXPECT_FALSE(ValidateDocument(dtd.value(),
                                xml::ParseXml("<r><a/><b/></r>").value()).ok());
  EXPECT_FALSE(ValidateDocument(dtd.value(),
                                xml::ParseXml("<r/>").value()).ok());
}

TEST(ValidatorTest, StarredChoiceAllowsEmpty) {
  auto dtd = ParseDtd("dtd r { r -> a* + b ; a -> #empty ; b -> #empty ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_TRUE(ValidateDocument(dtd.value(),
                               xml::ParseXml("<r/>").value()).ok());
  EXPECT_TRUE(ValidateDocument(dtd.value(),
                               xml::ParseXml("<r><a/><a/></r>").value()).ok());
}

TEST(ValidatorTest, TextElementRejectsElementChildren) {
  auto dtd = ParseDtd("dtd r { r -> a ; a -> #text ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(
      ValidateDocument(dtd.value(), xml::ParseXml("<r><a><r/></a></r>").value())
          .ok());
}

TEST(ValidatorTest, EmptyElementRejectsAnyContent) {
  auto dtd = ParseDtd("dtd r { r -> a ; a -> #empty ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(
      ValidateDocument(dtd.value(), xml::ParseXml("<r><a>x</a></r>").value())
          .ok());
}

TEST(ValidatorTest, UndeclaredLabelRejected) {
  auto dtd = ParseDtd("dtd r { r -> a* ; a -> #empty ; }");
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(
      ValidateDocument(dtd.value(), xml::ParseXml("<r><z/></r>").value()).ok());
}

TEST(ValidatorTest, Fig4TreeConformsToViewDtd) {
  gen::Fig4Tree fig = gen::MakeFig4Tree();
  Status s = ValidateDocument(gen::HospitalViewDtd(), fig.tree);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(DtdParserFuzzTest, MutatedDtdsYieldAValueOrAStatus) {
  fuzz::FuzzParser({fuzz::ReadTestdata("hospital.dtd")}, "{}()-><;,*+|#",
                   20261022,
                   [](const std::string& text) { return ParseDtd(text); });
}

}  // namespace
}  // namespace smoqe::dtd
