#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "gen/fixtures.h"
#include "mutation_fuzz.h"
#include "xpath/ast.h"
#include "xpath/parser.h"
#include "xpath/printer.h"
#include "xpath/x_fragment.h"

namespace smoqe::xpath {
namespace {

PathPtr MustParse(std::string_view q) {
  auto p = ParseQuery(q);
  EXPECT_TRUE(p.ok()) << "query: " << q << " -> " << p.status().ToString();
  return p.ok() ? p.value() : nullptr;
}

TEST(ParserTest, SimpleSteps) {
  PathPtr p = MustParse("a/b/c");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind, PathKind::kSeq);
  EXPECT_EQ(ToString(p), "a/b/c");
}

TEST(ParserTest, SelfStep) {
  EXPECT_EQ(MustParse(".")->kind, PathKind::kEmpty);
  EXPECT_TRUE(Equals(MustParse("./a"), MustParse("a")));
}

TEST(ParserTest, Wildcard) {
  PathPtr p = MustParse("a/*");
  EXPECT_EQ(p->right->kind, PathKind::kWildcard);
}

TEST(ParserTest, UnionPrecedence) {
  // '|' binds loosest: a/b | c = (a/b) | c.
  PathPtr p = MustParse("a/b | c");
  ASSERT_EQ(p->kind, PathKind::kUnion);
  EXPECT_EQ(p->left->kind, PathKind::kSeq);
}

TEST(ParserTest, DescendantOrSelfDesugars) {
  PathPtr p = MustParse("a//b");
  // a/(*)*/b
  ASSERT_EQ(p->kind, PathKind::kSeq);
  EXPECT_TRUE(IsInXFragment(p));
  EXPECT_TRUE(UsesStar(p));

  PathPtr lead = MustParse("//a");
  EXPECT_TRUE(IsInXFragment(lead));
  ASSERT_EQ(lead->kind, PathKind::kSeq);
  EXPECT_EQ(lead->left->kind, PathKind::kStar);
  EXPECT_EQ(lead->left->left->kind, PathKind::kWildcard);
}

TEST(ParserTest, KleeneStarOnGroup) {
  PathPtr p = MustParse("(parent/patient)*");
  ASSERT_EQ(p->kind, PathKind::kStar);
  EXPECT_EQ(p->left->kind, PathKind::kSeq);
  EXPECT_FALSE(IsInXFragment(p));
}

TEST(ParserTest, StarOnLabel) {
  PathPtr p = MustParse("a*");
  ASSERT_EQ(p->kind, PathKind::kStar);
  EXPECT_EQ(p->left->kind, PathKind::kLabel);
}

TEST(ParserTest, FilterExistence) {
  PathPtr p = MustParse("patient[visit]");
  ASSERT_EQ(p->kind, PathKind::kFilter);
  EXPECT_EQ(p->filter->kind, FilterKind::kPath);
}

TEST(ParserTest, FilterTextEquals) {
  PathPtr p = MustParse("d[x/text() = 'c']");
  ASSERT_EQ(p->filter->kind, FilterKind::kTextEquals);
  EXPECT_EQ(p->filter->text, "c");
  EXPECT_EQ(p->filter->path->kind, PathKind::kLabel);
}

TEST(ParserTest, FilterBareTextEquals) {
  PathPtr p = MustParse("d[text() = \"heart disease\"]");
  ASSERT_EQ(p->filter->kind, FilterKind::kTextEquals);
  EXPECT_EQ(p->filter->path->kind, PathKind::kEmpty);
  EXPECT_EQ(p->filter->text, "heart disease");
}

TEST(ParserTest, FilterPosition) {
  PathPtr p = MustParse("a[position() = 2]");
  ASSERT_EQ(p->filter->kind, FilterKind::kPositionEquals);
  EXPECT_EQ(p->filter->position, 2);
  EXPECT_TRUE(UsesPosition(p));
  EXPECT_FALSE(UsesPosition(MustParse("a[b]")));
}

TEST(ParserTest, FilterBooleans) {
  PathPtr p = MustParse("a[b and not(c) or d]");
  // or binds loosest: (b and not(c)) or d.
  ASSERT_EQ(p->filter->kind, FilterKind::kOr);
  EXPECT_EQ(p->filter->left->kind, FilterKind::kAnd);
  EXPECT_EQ(p->filter->left->right->kind, FilterKind::kNot);
}

TEST(ParserTest, FilterBooleanGrouping) {
  PathPtr p = MustParse("a[(b or c) and d]");
  ASSERT_EQ(p->filter->kind, FilterKind::kAnd);
  EXPECT_EQ(p->filter->left->kind, FilterKind::kOr);
}

TEST(ParserTest, FilterPathGroupNotConfusedWithBooleanGroup) {
  PathPtr p = MustParse("a[(b/c)*/d]");
  ASSERT_EQ(p->filter->kind, FilterKind::kPath);
  EXPECT_EQ(p->filter->path->kind, PathKind::kSeq);
  EXPECT_EQ(p->filter->path->left->kind, PathKind::kStar);
}

TEST(ParserTest, NestedFilters) {
  PathPtr p = MustParse("a[b[c[d]]]");
  ASSERT_EQ(p->kind, PathKind::kFilter);
  const FilterPtr& f = p->filter;
  ASSERT_EQ(f->kind, FilterKind::kPath);
  EXPECT_EQ(f->path->kind, PathKind::kFilter);
}

TEST(ParserTest, MultipleFiltersOnOneStep) {
  PathPtr p = MustParse("a[b][c]");
  ASSERT_EQ(p->kind, PathKind::kFilter);
  EXPECT_EQ(p->left->kind, PathKind::kFilter);
}

TEST(ParserTest, PaperExampleQueriesParse) {
  EXPECT_NE(MustParse(gen::kQueryExample11), nullptr);
  EXPECT_NE(MustParse(gen::kQueryExample21), nullptr);
  EXPECT_NE(MustParse(gen::kQueryExample41), nullptr);
  EXPECT_NE(MustParse(gen::kQueryExample31Rewritten), nullptr);
}

TEST(ParserTest, Example41Shape) {
  PathPtr p = MustParse(gen::kQueryExample41);
  // (patient/parent)*/patient[q0]
  ASSERT_EQ(p->kind, PathKind::kSeq);
  EXPECT_EQ(p->left->kind, PathKind::kStar);
  EXPECT_EQ(p->right->kind, PathKind::kFilter);
  EXPECT_FALSE(IsInXFragment(p));
}

TEST(ParserTest, Example11IsInX) {
  EXPECT_TRUE(IsInXFragment(MustParse(gen::kQueryExample11)));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("a/").ok());
  EXPECT_FALSE(ParseQuery("a[b").ok());
  EXPECT_FALSE(ParseQuery("(a").ok());
  EXPECT_FALSE(ParseQuery("a]").ok());
  EXPECT_FALSE(ParseQuery("a[]").ok());
  EXPECT_FALSE(ParseQuery("a[text() = ]").ok());
  EXPECT_FALSE(ParseQuery("a[position() = 'x']").ok());
  EXPECT_FALSE(ParseQuery("a b").ok());
  EXPECT_FALSE(ParseQuery("not(a)").ok());  // filters are not paths
  EXPECT_FALSE(ParseQuery("a[not b]").ok());
  EXPECT_FALSE(ParseQuery("a['str']").ok());
}

TEST(ParserTest, ReservedWordsAreNotLabels) {
  EXPECT_FALSE(ParseQuery("and").ok());
  EXPECT_FALSE(ParseQuery("or").ok());
  EXPECT_FALSE(ParseQuery("a/not").ok());
}

TEST(ParserTest, FilterExprEntryPoint) {
  auto f = ParseFilterExpr("a and not(b/text() = 'x')");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f.value()->kind, FilterKind::kAnd);
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintThenParseIsIdentity) {
  PathPtr p1 = MustParse(GetParam());
  ASSERT_NE(p1, nullptr);
  std::string printed = ToString(p1);
  auto p2 = ParseQuery(printed);
  ASSERT_TRUE(p2.ok()) << "printed: " << printed << " -> "
                       << p2.status().ToString();
  EXPECT_TRUE(Equals(p1, p2.value()))
      << "original: " << GetParam() << "\nprinted:  " << printed
      << "\nreprint:  " << ToString(p2.value());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "a", ".", "*", "a/b/c", "a | b | c", "a/b | c/d", "(a | b)/c",
        "a//b", "//a", "a*", "(a/b)*", "(a | b)*", "a**",
        "a[b]", "a[b/c]", "a[not(b)]", "a[b and c]", "a[b or c and d]",
        "a[(b or c) and d]", "a[text() = 'x']", "a[b/text() = 'x']",
        "a[(a | b)/text() = 'x']", "a[position() = 3]",
        "a[b[c]]", "a[b][c]", "a[(b/c)*/d]", "(a[b]/c)*",
        "department/patient[visit/treatment/medication/diagnosis/text() = "
        "'heart disease']",
        "(patient/parent)*/patient[(parent/patient)*/record/diagnosis/"
        "text() = 'heart disease']",
        "patient[*//record/diagnosis/text() = 'heart disease']",
        "a[not(b) and not(c/d | e)]", "a[.//b]", "a[b | c]"));

TEST(AstTest, ExpandedSizeCountsSharedSubtreesRepeatedly) {
  PathPtr shared = MustParse("a/b/c");
  PathPtr twice = Seq(shared, shared);
  EXPECT_EQ(ExpandedSize(twice), 1 + 2 * ExpandedSize(shared));
}

TEST(AstTest, EqualsDistinguishesStructure) {
  EXPECT_TRUE(Equals(MustParse("a/b"), MustParse("a/b")));
  EXPECT_FALSE(Equals(MustParse("a/b"), MustParse("a/c")));
  EXPECT_FALSE(Equals(MustParse("a/b"), MustParse("a|b")));
  EXPECT_FALSE(Equals(MustParse("a[b]"), MustParse("a[c]")));
  EXPECT_FALSE(Equals(MustParse("a[text() = 'x']"),
                      MustParse("a[text() = 'y']")));
}

TEST(AstTest, CollectLabels) {
  auto labels = CollectLabels(MustParse("a/b[c/text() = 'x' and not(d)]"));
  EXPECT_EQ(labels.size(), 4u);
}

TEST(AstTest, SeqFoldsEps) {
  EXPECT_TRUE(Equals(Seq(Eps(), Label("a")), Label("a")));
  EXPECT_TRUE(Equals(Seq(Label("a"), Eps()), Label("a")));
}

// ------------------------------------------------------- nesting bound --

std::string Repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// (((a))): n groups, syntax tree height 1.
std::string Parens(int n) { return Repeat("(", n) + "a" + Repeat(")", n); }
// a[a[a]]: n filters, height 2n + 1 (a filter node and its path atom per
// level).
std::string Filters(int n) { return Repeat("a[", n) + "a" + Repeat("]", n); }
// ((a)*)*: n starred groups, height n + 1.
std::string Stars(int n) { return Repeat("(", n) + "a" + Repeat(")*", n); }

void ExpectTooDeep(const std::string& query) {
  auto parsed = ParseQuery(query);
  ASSERT_FALSE(parsed.ok()) << query.substr(0, 40);
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("deeper than"), std::string::npos)
      << parsed.status().message();
}

// Each shape used to recurse once per level with no limit and overflow the
// stack; past the bound each is now a parse error.
TEST(ParserDepthTest, HundredThousandDeepShapesAreParseErrors) {
  constexpr int kDeep = 100000;
  ExpectTooDeep(Parens(kDeep));
  ExpectTooDeep(Filters(kDeep));
  ExpectTooDeep(Stars(kDeep));
  // Nesting inside a filter, through the boolean grammar.
  ExpectTooDeep("a[" + Repeat("not(", kDeep) + "b" + Repeat(")", kDeep) +
                "]");
  auto filter = ParseFilterExpr(Repeat("(", kDeep) + "a" + Repeat(")", kDeep));
  EXPECT_FALSE(filter.ok());
}

// Chains nest the syntax tree without nesting the text: a/a/a, a|a|a and
// a*** each build one level per repetition.
TEST(ParserDepthTest, LongChainsAreBoundedToo) {
  constexpr int kLong = 100000;
  ExpectTooDeep("a" + Repeat("/a", kLong));
  ExpectTooDeep("a" + Repeat("|a", kLong));
  ExpectTooDeep("a" + Repeat("*", kLong));
  ExpectTooDeep("a[b" + Repeat(" and b", kLong) + "]");
  // Within the bound they still parse.
  EXPECT_NE(MustParse("a" + Repeat("/a", 100)), nullptr);
}

TEST(ParserDepthTest, ShapesAtTheBoundParseAndOnePastFails) {
  const int bound = kMaxQueryDepth;
  EXPECT_NE(MustParse(Parens(bound)), nullptr);
  ExpectTooDeep(Parens(bound + 1));
  const int filters = (bound - 1) / 2;  // the most with 2n + 1 <= bound
  EXPECT_NE(MustParse(Filters(filters)), nullptr);
  ExpectTooDeep(Filters(filters + 1));
  EXPECT_NE(MustParse(Stars(bound - 1)), nullptr);  // height == bound
  ExpectTooDeep(Stars(bound));
  // A chain of `bound` labels is `bound - 1` Seq levels high above a leaf.
  EXPECT_NE(MustParse("a" + Repeat("/a", bound - 1)), nullptr);
  ExpectTooDeep("a" + Repeat("/a", bound));
}

// An atom opening with '(' is first tried as a path and, failing that,
// re-read as a boolean group. Nested, that retry used to double the work
// per level (2^18 re-parses at 18 levels); memoized, it stays linear.
TEST(ParserDepthTest, NestedGroupRetriesStayLinear) {
  constexpr int kLevels = 40;
  const std::string query = "a" + Repeat("[(a", kLevels) + "[b and c]" +
                            Repeat(" and d)]", kLevels);
  const auto start = std::chrono::steady_clock::now();
  PathPtr p = MustParse(query);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(ToString(MustParse(ToString(p))), ToString(p));
  // Linear work is well under a millisecond; exponential would not finish.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// ------------------------------------------------------------ fuzzing --

TEST(ParserFuzzTest, MutatedQueriesYieldAValueOrAStatus) {
  std::vector<std::string> seeds;
  std::istringstream cases(fuzz::ReadTestdata("conformance_cases.txt"));
  for (std::string line; std::getline(cases, line);) {
    if (line.rfind("query ", 0) == 0) seeds.push_back(line.substr(6));
  }
  fuzz::FuzzParser(seeds, "()[]/|*.='\" and", 20261020,
                   [](const std::string& q) { return ParseQuery(q); });
}

}  // namespace
}  // namespace smoqe::xpath
