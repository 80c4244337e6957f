#include <gtest/gtest.h>

#include <string>

#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "gen/fixtures.h"
#include "gen/generic_generator.h"
#include "gen/hospital_generator.h"
#include "gen/query_generator.h"
#include "storage/crc32c.h"
#include "xml/writer.h"
#include "xpath/parser.h"
#include "xpath/printer.h"
#include "xpath/x_fragment.h"

namespace smoqe::gen {
namespace {

TEST(HospitalGeneratorTest, ConformsToPaperDtd) {
  HospitalParams params;
  params.patients = 60;
  params.seed = 2;
  xml::Tree t = GenerateHospital(params);
  Status s = dtd::ValidateDocument(HospitalDtd(), t);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(HospitalGeneratorTest, DeterministicForSeed) {
  HospitalParams params;
  params.patients = 10;
  params.seed = 4;
  xml::Tree a = GenerateHospital(params);
  xml::Tree b = GenerateHospital(params);
  EXPECT_EQ(a.size(), b.size());
  params.seed = 5;
  xml::Tree c = GenerateHospital(params);
  // Extremely likely to differ in size.
  EXPECT_TRUE(a.size() != c.size() || a.CountTexts() != c.CountTexts());
}

TEST(HospitalGeneratorTest, SizeScalesLinearlyInPatients) {
  HospitalParams params;
  params.seed = 6;
  params.patients = 100;
  int64_t size100 = GenerateHospital(params).size();
  params.patients = 200;
  int64_t size200 = GenerateHospital(params).size();
  double ratio = static_cast<double>(size200) / static_cast<double>(size100);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(HospitalGeneratorTest, ShapeMatchesPaperProfile) {
  // The paper: ~2/3 element nodes, depth <= 13, ~30+ elements per patient.
  HospitalParams params;
  params.patients = 200;
  params.seed = 8;
  xml::Tree t = GenerateHospital(params);
  double elem_fraction = static_cast<double>(t.CountElements()) /
                         static_cast<double>(t.size());
  EXPECT_GT(elem_fraction, 0.5);
  EXPECT_LT(elem_fraction, 0.8);
  EXPECT_LE(t.Depth(), 24);
  EXPECT_GE(t.CountElements(), 200 * 15);
}

TEST(HospitalGeneratorTest, SelectivityKnobWorks) {
  HospitalParams params;
  params.patients = 300;
  params.seed = 10;
  params.heart_disease_prob = 0.0;
  xml::Tree none = GenerateHospital(params);
  params.heart_disease_prob = 1.0;
  params.medication_prob = 1.0;
  xml::Tree all = GenerateHospital(params);
  auto count_heart = [](const xml::Tree& t) {
    int count = 0;
    for (xml::NodeId id = 0; id < t.size(); ++id) {
      if (t.is_element(id) && t.label_name(id) == "diagnosis" &&
          t.HasText(id, "heart disease")) {
        ++count;
      }
    }
    return count;
  };
  EXPECT_EQ(count_heart(none), 0);
  EXPECT_GT(count_heart(all), 300);
}

// Ancestor serials grow by *101 per generation, so chains in documents of
// more than ~2,083 patients wrap past INT32_MAX. The wrap must be defined
// behaviour (this runs under the ASan+UBSan job with halt_on_error) and must
// keep the serials, hence the text, of large documents unchanged.
TEST(HospitalGeneratorTest, SerialsWrapWithoutOverflow) {
  HospitalParams params;
  params.patients = 2100;
  params.seed = 42;
  xml::Tree t = GenerateHospital(params);
  EXPECT_NE(xml::WriteXml(t).find("<pname>p--"), std::string::npos)
      << "no ancestor chain reached the wrap";
}

TEST(HospitalGeneratorTest, LargeDocumentTextIsPinned) {
  HospitalParams params;
  params.patients = 6000;
  params.seed = 42;
  std::string xml = xml::WriteXml(GenerateHospital(params));
  // Pinned from the generator before serials were computed in unsigned
  // arithmetic: the fix must not change any generated byte.
  EXPECT_EQ(xml.size(), 8690529u);
  EXPECT_EQ(storage::Crc32c(xml), 0xa165f1e0u);
}

TEST(GenericGeneratorTest, ConformsToArbitraryDtd) {
  auto dtd = dtd::ParseDtd(
      "dtd r { r -> a*, b ; a -> c + d* ; b -> #text ; c -> #text ; "
      "d -> r* ; }");
  ASSERT_TRUE(dtd.ok());
  GenericParams params;
  params.seed = 21;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    params.seed = seed;
    auto t = GenerateFromDtd(dtd.value(), params);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    Status s = dtd::ValidateDocument(dtd.value(), t.value());
    EXPECT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
  }
}

TEST(GenericGeneratorTest, InfinitelyDeepDtdFails) {
  auto dtd = dtd::ParseDtd("dtd a { a -> b ; b -> a ; }");
  ASSERT_TRUE(dtd.ok());
  GenericParams params;
  auto t = GenerateFromDtd(dtd.value(), params);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GenericGeneratorTest, HospitalDtdWorksToo) {
  GenericParams params;
  params.seed = 33;
  auto t = GenerateFromDtd(HospitalDtd(), params);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(dtd::ValidateDocument(HospitalDtd(), t.value()).ok());
}

TEST(QueryGeneratorTest, ProducesParsableQueries) {
  QueryGenParams params;
  params.labels = {"a", "b", "c"};
  params.text_values = {"x", "y"};
  std::mt19937_64 rng(42);
  for (int i = 0; i < 200; ++i) {
    xpath::PathPtr q = RandomQuery(params, &rng);
    ASSERT_NE(q, nullptr);
    // Round-trips through the printer/parser.
    std::string printed = xpath::ToString(q);
    auto reparsed = xpath::ParseQuery(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(xpath::Equals(q, reparsed.value())) << printed;
  }
}

TEST(QueryGeneratorTest, XFragmentModeAvoidsGeneralStars) {
  QueryGenParams params;
  params.labels = {"a", "b"};
  params.allow_star = false;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100; ++i) {
    xpath::PathPtr q = RandomQuery(params, &rng);
    EXPECT_TRUE(xpath::IsInXFragment(q)) << xpath::ToString(q);
  }
}

TEST(QueryGeneratorTest, DeterministicForSeed) {
  QueryGenParams params;
  params.labels = {"a", "b"};
  std::mt19937_64 rng1(5), rng2(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(
        xpath::Equals(RandomQuery(params, &rng1), RandomQuery(params, &rng2)));
  }
}

TEST(FixturesTest, Fig4TreeShape) {
  Fig4Tree fig = MakeFig4Tree();
  EXPECT_EQ(fig.tree.CountElements(), 15);
  EXPECT_EQ(fig.tree.CountTexts(), 4);
  EXPECT_EQ(fig.tree.label_name(fig.ids[1]), "hospital");
  EXPECT_EQ(fig.tree.label_name(fig.ids[10]), "parent");
  EXPECT_TRUE(fig.tree.HasText(fig.ids[13], "heart disease"));
}

}  // namespace
}  // namespace smoqe::gen
