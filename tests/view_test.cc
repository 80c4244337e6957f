#include <gtest/gtest.h>

#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "mutation_fuzz.h"
#include "view/materializer.h"
#include "view/view_parser.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace smoqe::view {
namespace {

TEST(ViewParserTest, ParsesHospitalSpec) {
  auto v = ParseView(gen::kHospitalViewSpecText);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const ViewDef& def = v.value();
  EXPECT_TRUE(def.IsRecursive());
  EXPECT_TRUE(def.Validate().ok());
  EXPECT_GT(def.SizeMeasure(), 0);
  dtd::TypeId patient = def.view_dtd().FindType("patient");
  dtd::TypeId parent = def.view_dtd().FindType("parent");
  ASSERT_NE(def.annotation(patient, parent), nullptr);
}

TEST(ViewParserTest, MissingAnnotationFailsValidation) {
  const char* spec = R"(
view bad {
  source dtd s { s -> a* ; a -> #text ; }
  view dtd v { v -> w* ; w -> #text ; }
  sigma { }
}
)";
  auto v = ParseView(spec);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("no annotation"), std::string::npos);
}

TEST(ViewParserTest, AnnotationOnNonEdgeRejected) {
  const char* spec = R"(
view bad {
  source dtd s { s -> a* ; a -> #text ; }
  view dtd v { v -> w* ; w -> #text ; }
  sigma { w.v = "a" ; }
}
)";
  EXPECT_FALSE(ParseView(spec).ok());
}

TEST(ViewDefTest, PositionInAnnotationRejected) {
  dtd::Dtd source = dtd::ParseDtd("dtd s { s -> a* ; a -> #text ; }").take();
  dtd::Dtd viewd = dtd::ParseDtd("dtd v { v -> w* ; w -> #text ; }").take();
  ViewDef def(std::move(source), std::move(viewd));
  ASSERT_TRUE(def.SetAnnotation("v", "w",
                                xpath::ParseQuery("a[position() = 1]").value())
                  .ok());
  Status s = def.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
}

// A small source document with two heart-disease patients, one of which has
// a parent with a diagnosis, plus a sibling that must NOT appear in the view.
xml::Tree SmallHospital() {
  auto t = xml::ParseXml(
      "<hospital><department><name>d</name>"
      "<address><street>s</street><city>c</city><zip>z</zip></address>"
      // patient 1: heart disease, parent with test record, sibling (hidden)
      "<patient><pname>p1</pname>"
      "<address><street>s</street><city>c</city><zip>z</zip></address>"
      "<visit><date>1</date><treatment><medication><type>m</type>"
      "<diagnosis>heart disease</diagnosis></medication></treatment>"
      "<doctor><dname>n</dname><specialty>x</specialty></doctor></visit>"
      "<parent><patient><pname>gp1</pname>"
      "<address><street>s</street><city>c</city><zip>z</zip></address>"
      "<visit><date>2</date><treatment><test><type>t</type></test></treatment>"
      "<doctor><dname>n</dname><specialty>x</specialty></doctor></visit>"
      "</patient></parent>"
      "<sibling><patient><pname>sib1</pname>"
      "<address><street>s</street><city>c</city><zip>z</zip></address>"
      "<visit><date>3</date><treatment><medication><type>m</type>"
      "<diagnosis>heart disease</diagnosis></medication></treatment>"
      "<doctor><dname>n</dname><specialty>x</specialty></doctor></visit>"
      "</patient></sibling>"
      "</patient>"
      // patient 2: influenza only -- excluded from the view
      "<patient><pname>p2</pname>"
      "<address><street>s</street><city>c</city><zip>z</zip></address>"
      "<visit><date>4</date><treatment><medication><type>m</type>"
      "<diagnosis>influenza</diagnosis></medication></treatment>"
      "<doctor><dname>n</dname><specialty>x</specialty></doctor></visit>"
      "</patient>"
      "</department></hospital>");
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.take();
}

TEST(MaterializerTest, HospitalViewShape) {
  ViewDef def = gen::HospitalView();
  xml::Tree source = SmallHospital();
  auto mat = Materialize(def, source);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  const xml::Tree& vt = mat.value().tree;

  // View conforms to the view DTD.
  EXPECT_TRUE(dtd::ValidateDocument(def.view_dtd(), vt).ok())
      << dtd::ValidateDocument(def.view_dtd(), vt).ToString();

  eval::NaiveEvaluator eval(vt);
  // Only the heart-disease patient is exposed at the top level.
  EXPECT_EQ(eval.Eval(xpath::ParseQuery("patient").value(), vt.root()).size(),
            1u);
  // Its parent hierarchy is present, with a record whose branch is 'empty'
  // (the grandparent had a test, not a medication).
  EXPECT_EQ(
      eval.Eval(xpath::ParseQuery("patient/parent/patient/record/empty").value(),
                vt.root())
          .size(),
      1u);
  // The patient's own record carries the diagnosis text.
  auto diags = eval.Eval(
      xpath::ParseQuery("patient/record/diagnosis[text() = 'heart disease']")
          .value(),
      vt.root());
  EXPECT_EQ(diags.size(), 1u);
}

TEST(MaterializerTest, SiblingsAreHidden) {
  ViewDef def = gen::HospitalView();
  xml::Tree source = SmallHospital();
  auto mat = Materialize(def, source);
  ASSERT_TRUE(mat.ok());
  // No node of the view binds to any source node inside a <sibling>.
  const xml::Tree& vt = mat.value().tree;
  for (xml::NodeId v = 0; v < vt.size(); ++v) {
    xml::NodeId src = mat.value().binding[v];
    for (xml::NodeId n = src; n != xml::kNullNode; n = source.parent(n)) {
      EXPECT_NE(source.is_element(n) ? source.label_name(n) : "",
                "sibling")
          << "view node " << v << " leaks sibling data";
    }
  }
}

TEST(MaterializerTest, BindingPointsToSourceCopies) {
  ViewDef def = gen::HospitalView();
  xml::Tree source = SmallHospital();
  auto mat = Materialize(def, source);
  ASSERT_TRUE(mat.ok());
  const MaterializedView& mv = mat.value();
  ASSERT_EQ(static_cast<int32_t>(mv.binding.size()), mv.tree.size());
  EXPECT_EQ(mv.binding[mv.tree.root()], source.root());
  // Every element's bound source node exists and diagnosis texts match.
  for (xml::NodeId v = 0; v < mv.tree.size(); ++v) {
    if (!mv.tree.is_element(v)) continue;
    ASSERT_NE(mv.binding[v], xml::kNullNode);
    if (mv.tree.label_name(v) == "diagnosis") {
      EXPECT_EQ(mv.tree.TextOf(v), source.TextOf(mv.binding[v]));
    }
  }
}

TEST(MaterializerTest, GeneratedHospitalMaterializes) {
  gen::HospitalParams params;
  params.patients = 40;
  params.heart_disease_prob = 0.25;
  params.seed = 5;
  xml::Tree source = gen::GenerateHospital(params);
  ViewDef def = gen::HospitalView();
  auto mat = Materialize(def, source);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  EXPECT_TRUE(dtd::ValidateDocument(def.view_dtd(), mat.value().tree).ok());
  EXPECT_LT(mat.value().tree.size(), source.size());
}

TEST(MaterializerTest, NonTerminatingViewDetected) {
  // sigma(v, w) = '.', sigma(w, v) = '.': the view recursion never descends
  // in the source.
  const char* spec = R"(
view loop {
  source dtd s { s -> #text ; }
  view dtd v { v -> w* ; w -> v* ; }
  sigma { v.w = "." ; w.v = "." ; }
}
)";
  auto v = ParseView(spec);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto t = xml::ParseXml("<s>x</s>");
  ASSERT_TRUE(t.ok());
  auto mat = Materialize(v.value(), t.value());
  ASSERT_FALSE(mat.ok());
  EXPECT_NE(mat.status().message().find("not terminate"), std::string::npos);
}

TEST(MaterializerTest, UnstarredMultiplicityViolation) {
  // view w is unstarred but sigma selects two source nodes.
  const char* spec = R"(
view bad {
  source dtd s { s -> a* ; a -> #text ; }
  view dtd v { v -> w ; w -> #text ; }
  sigma { v.w = "a" ; }
}
)";
  auto v = ParseView(spec);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto two = xml::ParseXml("<s><a>1</a><a>2</a></s>");
  auto one = xml::ParseXml("<s><a>1</a></s>");
  EXPECT_FALSE(Materialize(v.value(), two.value()).ok());
  EXPECT_TRUE(Materialize(v.value(), one.value()).ok());
}

TEST(MaterializerTest, AmbiguousDisjunctionRejected) {
  const char* spec = R"(
view bad {
  source dtd s { s -> a*, b* ; a -> #text ; b -> #text ; }
  view dtd v { v -> w + u ; w -> #text ; u -> #text ; }
  sigma { v.w = "a" ; v.u = "b" ; }
}
)";
  auto v = ParseView(spec);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto both = xml::ParseXml("<s><a>1</a><b>2</b></s>");
  auto mat = Materialize(v.value(), both.value());
  ASSERT_FALSE(mat.ok());
  EXPECT_NE(mat.status().message().find("ambiguous"), std::string::npos);
  auto only_a = xml::ParseXml("<s><a>1</a></s>");
  EXPECT_TRUE(Materialize(v.value(), only_a.value()).ok());
}

TEST(MaterializerTest, MapToSourceDeduplicates) {
  ViewDef def = gen::HospitalView();
  xml::Tree source = SmallHospital();
  auto mat = Materialize(def, source);
  ASSERT_TRUE(mat.ok());
  std::vector<xml::NodeId> all;
  for (xml::NodeId v = 0; v < mat.value().tree.size(); ++v) {
    if (mat.value().tree.is_element(v)) all.push_back(v);
  }
  auto mapped = MapToSource(mat.value(), all);
  EXPECT_TRUE(std::is_sorted(mapped.begin(), mapped.end()));
  EXPECT_TRUE(std::adjacent_find(mapped.begin(), mapped.end()) == mapped.end());
}

TEST(ViewParserFuzzTest, MutatedSpecsYieldAValueOrAStatus) {
  fuzz::FuzzParser({fuzz::ReadTestdata("research_view.spec")},
                   "{}()[]-><;,*+#\"'=./|", 20261021,
                   [](const std::string& spec) { return ParseView(spec); });
}

}  // namespace
}  // namespace smoqe::view
