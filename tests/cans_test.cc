// Unit tests for the cans DAG itself, plus structural edge cases of the
// HyPE traversal that exercise it (deletion semantics, diamond reachability,
// empty graphs, wide fan-out).

#include <gtest/gtest.h>

#include <algorithm>

#include "automata/compiler.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/cans.h"
#include "hype/hype.h"
#include "rewrite/rewriter.h"
#include "view/materializer.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace smoqe::hype {
namespace {

// Phase two over everything added since Reset, as one region, sorted for
// comparison (the engine sorts and dedupes the run's answers itself).
std::vector<xml::NodeId> CollectAll(CansGraph& g) {
  std::vector<xml::NodeId> out;
  g.CollectSince(CansGraph::Mark{}, &out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CansGraphTest, EmptyGraphNoAnswers) {
  CansGraph g;
  EXPECT_TRUE(CollectAll(g).empty());
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.peak_vertices(), 0);
}

TEST(CansGraphTest, SimpleChainCollects) {
  CansGraph g;
  auto a = g.AddVertex(/*initial=*/true);
  auto b = g.AddVertex(false);
  auto c = g.AddVertex(false);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.SetAnswer(c, 42);
  EXPECT_EQ(CollectAll(g), (std::vector<xml::NodeId>{42}));
}

TEST(CansGraphTest, DeletionDisconnects) {
  CansGraph g;
  auto a = g.AddVertex(true);
  auto b = g.AddVertex(false);
  auto c = g.AddVertex(false);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.SetAnswer(c, 7);
  g.DeleteVertex(b);
  EXPECT_TRUE(CollectAll(g).empty());
}

TEST(CansGraphTest, DiamondSurvivesOneDeletedPath) {
  // Collecting drops the region, so each case builds its own diamond.
  auto diamond = [](CansGraph& g, bool delete_right) {
    auto a = g.AddVertex(true);
    auto left = g.AddVertex(false);
    auto right = g.AddVertex(false);
    auto d = g.AddVertex(false);
    g.AddEdge(a, left);
    g.AddEdge(a, right);
    g.AddEdge(left, d);
    g.AddEdge(right, d);
    g.SetAnswer(d, 9);
    g.DeleteVertex(left);
    if (delete_right) g.DeleteVertex(right);
  };
  CansGraph g;
  diamond(g, false);
  EXPECT_EQ(CollectAll(g), (std::vector<xml::NodeId>{9}));
  diamond(g, true);
  EXPECT_TRUE(CollectAll(g).empty());
}

TEST(CansGraphTest, DeletedInitialDoesNotSeed) {
  CansGraph g;
  auto a = g.AddVertex(true);
  g.SetAnswer(a, 1);
  g.DeleteVertex(a);
  EXPECT_TRUE(CollectAll(g).empty());
}

TEST(CansGraphTest, EveryAnswerRecordIsAppended) {
  // Repeats are left to the caller: the engine sorts and dedupes once over
  // the run's answers.
  CansGraph g;
  auto a = g.AddVertex(true);
  auto b = g.AddVertex(true);
  g.SetAnswer(a, 5);
  g.SetAnswer(b, 5);
  auto c = g.AddVertex(true);
  g.SetAnswer(c, 2);
  EXPECT_EQ(CollectAll(g), (std::vector<xml::NodeId>{2, 5, 5}));
}

TEST(CansGraphTest, CyclesInGraphTerminate) {
  // ε-cycles in the NFA produce cycles among same-node vertices; phase two
  // must handle them.
  CansGraph g;
  auto a = g.AddVertex(true);
  auto b = g.AddVertex(false);
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  g.SetAnswer(b, 3);
  EXPECT_EQ(CollectAll(g), (std::vector<xml::NodeId>{3}));
}

TEST(CansGraphTest, SiblingRegionsCollectIndependently) {
  // Region P stays resident (with a deletion that disconnects its answer)
  // while region Q is built and collected on top of it: Q's walk sees only
  // its own records and deletions, and P's records survive Q's truncation.
  CansGraph g;
  auto p0 = g.AddVertex(true);
  auto p1 = g.AddVertex(false);
  auto p2 = g.AddVertex(false);
  g.AddEdge(p0, p1);
  g.AddEdge(p1, p2);
  g.SetAnswer(p2, 10);
  g.DeleteVertex(p1);

  const CansGraph::Mark q_mark = g.mark();
  auto q0 = g.AddVertex(true);
  auto q1 = g.AddVertex(false);
  g.AddEdge(q0, q1);
  g.SetAnswer(q1, 20);
  std::vector<xml::NodeId> q_answers;
  g.CollectSince(q_mark, &q_answers);
  EXPECT_EQ(q_answers, (std::vector<xml::NodeId>{20}));
  EXPECT_EQ(g.resident_vertices(), 3);

  // The same with the deletion in Q instead: P's answer stands.
  CansGraph h;
  auto r0 = h.AddVertex(true);
  auto r1 = h.AddVertex(false);
  h.AddEdge(r0, r1);
  h.SetAnswer(r1, 30);
  const CansGraph::Mark s_mark = h.mark();
  auto s0 = h.AddVertex(true);
  auto s1 = h.AddVertex(false);
  auto s2 = h.AddVertex(false);
  h.AddEdge(s0, s1);
  h.AddEdge(s1, s2);
  h.SetAnswer(s2, 40);
  h.DeleteVertex(s1);
  std::vector<xml::NodeId> s_answers;
  h.CollectSince(s_mark, &s_answers);
  EXPECT_TRUE(s_answers.empty());
  EXPECT_EQ(CollectAll(h), (std::vector<xml::NodeId>{30}));

  EXPECT_TRUE(CollectAll(g).empty());  // P's deletion still disconnects
}

TEST(CansGraphTest, DeletionFreeRegionSkipsTheWalk) {
  // Without deletions the recorded answers are reported as they stand: the
  // builder's contract makes every answer vertex reachable, so a vertex
  // violating it is not re-checked. One deletion in the region (of an
  // unrelated vertex) switches to the reachability walk, which drops it.
  CansGraph g;
  auto a = g.AddVertex(true);
  auto orphan = g.AddVertex(false);
  g.SetAnswer(a, 1);
  g.SetAnswer(orphan, 2);
  EXPECT_EQ(CollectAll(g), (std::vector<xml::NodeId>{1, 2}));

  a = g.AddVertex(true);
  orphan = g.AddVertex(false);
  auto unrelated = g.AddVertex(false);
  g.SetAnswer(a, 1);
  g.SetAnswer(orphan, 2);
  g.DeleteVertex(unrelated);
  EXPECT_EQ(CollectAll(g), (std::vector<xml::NodeId>{1}));
}

TEST(CansGraphTest, ResidentSizeReturnsToMarkTotalsKeepCounting) {
  CansGraph g;
  auto a = g.AddVertex(true);
  auto b = g.AddVertex(false);
  g.AddEdge(a, b);
  const CansGraph::Mark mark = g.mark();
  auto base = g.AddVertexRange(4);
  g.MarkInitial(base);
  for (int i = 0; i < 3; ++i) g.AddEdge(base + i, base + i + 1);
  g.SetAnswer(base + 3, 8);
  EXPECT_EQ(g.resident_vertices(), 6);

  std::vector<xml::NodeId> answers;
  g.CollectSince(mark, &answers);
  EXPECT_EQ(answers, (std::vector<xml::NodeId>{8}));
  EXPECT_EQ(g.resident_vertices(), 2);
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.peak_vertices(), 6);

  // A smaller second region leaves the peak where it was.
  const CansGraph::Mark again = g.mark();
  g.AddVertex(true);
  g.CollectSince(again, &answers);
  EXPECT_EQ(g.resident_vertices(), 2);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.peak_vertices(), 6);

  g.Reset();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.peak_vertices(), 0);
}

// ---- HyPE traversal shapes that stress cans construction ----

std::vector<xml::NodeId> RunBoth(const xml::Tree& t, const char* q) {
  auto query = xpath::ParseQuery(q);
  EXPECT_TRUE(query.ok()) << q;
  automata::Mfa mfa = automata::CompileQuery(query.value());
  HypeEvaluator hype(t, mfa);
  auto got = hype.Eval(t.root());
  auto expected =
      eval::NaiveEvaluator(t).Eval(query.value(), t.root());
  EXPECT_EQ(got, expected) << q;
  return got;
}

TEST(CansHypeTest, WideFanOut) {
  xml::Tree t;
  xml::NodeId root = t.AddRoot("r");
  for (int i = 0; i < 500; ++i) {
    xml::NodeId a = t.AddElement(root, "a");
    if (i % 3 == 0) t.AddElement(a, "m");
    t.AddElement(a, "b");
  }
  EXPECT_EQ(RunBoth(t, "a[m]/b").size(), 167u);
  RunBoth(t, "a[not(m)]/b");
  RunBoth(t, "a[m or not(m)]");
}

TEST(CansHypeTest, GuardAtEveryLevel) {
  // Nested guards: each level's filter refers to a subtree resolved later.
  auto t = xml::ParseXml(
      "<r><a><ok/><a><ok/><a><b/></a></a></a>"
      "<a><a><ok/><a><ok/><b/></a></a></a></r>");
  ASSERT_TRUE(t.ok());
  RunBoth(t.value(), "(a[ok])*");
  RunBoth(t.value(), "(a[ok])*/a[b]");
  RunBoth(t.value(), "a[a[a]]/a/a");
}

TEST(CansHypeTest, UnionOfGuardedAndUnguarded) {
  // One union branch is filter-free (no region), the other guarded (region):
  // both kinds of answer emission must coexist in one run.
  auto t = xml::ParseXml("<r><a><m/><b/></a><a><b/></a><c><b/></c></r>");
  ASSERT_TRUE(t.ok());
  RunBoth(t.value(), "c/b | a[m]/b");
  RunBoth(t.value(), "a/b | a[m]/b");
  RunBoth(t.value(), "(a | c)[b]/b");
}

TEST(CansHypeTest, FilterOnContextEpsilon) {
  auto t = xml::ParseXml("<r><m/><a><b/></a></r>");
  ASSERT_TRUE(t.ok());
  RunBoth(t.value(), ".[m]/a/b");
  RunBoth(t.value(), ".[x]/a/b");
  RunBoth(t.value(), ".[m]/a[b]");
}

TEST(CansHypeTest, TextOnlyTree) {
  auto t = xml::ParseXml("<r>just text<a>more</a>tail</r>");
  ASSERT_TRUE(t.ok());
  RunBoth(t.value(), "a[text() = 'more']");
  RunBoth(t.value(), ".[text() = 'just text']");
  RunBoth(t.value(), "a[text() = 'tail']");
}

// Copies the element subtree of `node` in `src` under `parent` in `dst`.
void CopySubtree(const xml::Tree& src, xml::NodeId node, xml::Tree* dst,
                 xml::NodeId parent) {
  xml::NodeId copy = dst->AddElement(parent, src.label_name(node));
  for (xml::NodeId c = src.first_child(node); c != xml::kNullNode;
       c = src.next_sibling(c)) {
    if (src.is_element(c)) {
      CopySubtree(src, c, dst, copy);
    } else {
      dst->AddText(copy, src.text_value(c));
    }
  }
}

TEST(CansHypeTest, PeakIsOnePatientRegion) {
  // σ0 puts a qualifier on every view patient, so each department patient
  // of the source opens its own cans region. Phase two runs per region and
  // drops it, so the engine never holds more than the largest of them --
  // measured here as the cans a run creates over a one-patient copy of the
  // document (same root path, so the same configurations).
  gen::HospitalParams params;
  params.patients = 240;
  params.seed = 5;
  params.heart_disease_prob = 0.3;
  const xml::Tree source = gen::GenerateHospital(params);
  const view::ViewDef def = gen::HospitalView();
  auto mat = view::Materialize(def, source);
  ASSERT_TRUE(mat.ok());

  for (const char* q : {gen::kQueryExample11, gen::kQueryExample41,
                        "patient[parent/patient/record]/record"}) {
    auto query = xpath::ParseQuery(q);
    ASSERT_TRUE(query.ok()) << q;
    auto mfa = rewrite::RewriteToMfa(query.value(), def);
    ASSERT_TRUE(mfa.ok()) << q;

    HypeEvaluator eval(source, mfa.value());
    std::vector<xml::NodeId> answers = eval.Eval(source.root());
    eval::NodeSet on_view = eval::NaiveEvaluator(mat.value().tree)
                                .Eval(query.value(), mat.value().tree.root());
    EXPECT_EQ(answers, view::MapToSource(mat.value(), on_view)) << q;

    int64_t largest_region = 0;
    int patients = 0;
    for (xml::NodeId d = source.first_child(source.root());
         d != xml::kNullNode; d = source.next_sibling(d)) {
      for (xml::NodeId p = source.first_child(d); p != xml::kNullNode;
           p = source.next_sibling(p)) {
        if (!source.is_element(p) || source.label_name(p) != "patient") {
          continue;
        }
        ++patients;
        xml::Tree one;
        xml::NodeId department = one.AddElement(one.AddRoot("hospital"),
                                                "department");
        CopySubtree(source, p, &one, department);
        HypeEvaluator solo(one, mfa.value());
        solo.Eval(one.root());
        largest_region = std::max(largest_region, solo.stats().cans_vertices);
      }
    }
    ASSERT_EQ(patients, params.patients);
    const EvalStats& stats = eval.stats();
    EXPECT_GT(stats.cans_peak_vertices, 0) << q;
    EXPECT_LE(stats.cans_peak_vertices, largest_region) << q;
    // The run still creates (and counts) the whole pass's cans.
    EXPECT_GT(stats.cans_vertices, 10 * stats.cans_peak_vertices) << q;
  }
}

}  // namespace
}  // namespace smoqe::hype
