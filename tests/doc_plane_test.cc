// xml::DocPlane correctness and jump-mode equivalence.
//
// Two families of properties:
//  * Plane structure: on randomized trees (built in NON-preorder insertion
//    order, so NodeId order and preorder disagree), every position's extent
//    equals its element-descendant count, subtrees are contiguous position
//    intervals, posting lists are sorted and complete, and the incremental
//    Builder driven by view::Materialize emits exactly what DocPlane::Build
//    computes after the fact.
//  * Jump-driver equivalence: across label-sparse and label-dense generated
//    documents and randomized query workloads, the jump-mode driver
//    (BatchHypeEvaluator's joint pass, batched and as the one-slot
//    HypeEvaluator) must produce bit-identical answers AND per-engine
//    traversal statistics to the full-DFS passes and to solo no-jump HyPE,
//    with the NaiveEvaluator as the answer oracle -- while actually
//    engaging (positions_jumped > 0) on the sparse workloads, so a silent
//    fallback to full DFS cannot pass.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "eval/naive_evaluator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "gen/query_generator.h"
#include "hype/batch_hype.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "view/materializer.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe::xml {
namespace {

using NodeVec = std::vector<NodeId>;

// A random tree whose node ids deliberately do NOT follow preorder: each new
// element picks a random existing parent, so siblings' subtrees interleave
// in id space. `needle_prob` controls how often the rare labels appear --
// the label-sparse documents jump mode is built for.
Tree RandomTree(int num_elements, const std::vector<std::string>& common,
                const std::vector<std::string>& rare, double needle_prob,
                uint64_t seed) {
  std::mt19937_64 rng(seed);
  Tree tree;
  std::vector<NodeId> elements;
  elements.push_back(tree.AddRoot(common[0]));
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int i = 1; i < num_elements; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    const std::string& label =
        coin(rng) < needle_prob && !rare.empty()
            ? rare[rng() % rare.size()]
            : common[rng() % common.size()];
    elements.push_back(tree.AddElement(parent, label));
    if (coin(rng) < 0.15) {
      tree.AddText(elements.back(), coin(rng) < 0.5 ? "alpha" : "beta");
    }
  }
  return tree;
}

// Brute-force element-descendant count through the Tree pointers.
int32_t CountElementDescendants(const Tree& tree, NodeId n) {
  int32_t count = 0;
  for (NodeId c = tree.first_child(n); c != kNullNode;
       c = tree.next_sibling(c)) {
    if (tree.is_element(c)) count += 1 + CountElementDescendants(tree, c);
  }
  return count;
}

bool HasTextChild(const Tree& tree, NodeId n) {
  for (NodeId c = tree.first_child(n); c != kNullNode;
       c = tree.next_sibling(c)) {
    if (tree.kind(c) == NodeKind::kText) return true;
  }
  return false;
}

void CheckPlaneProperties(const Tree& tree, const DocPlane& plane) {
  ASSERT_EQ(plane.size(), tree.CountElements());
  std::vector<int64_t> postings_seen(tree.labels().size(), 0);
  for (int32_t pos = 0; pos < plane.size(); ++pos) {
    const NodeId n = plane.node_at(pos);
    ASSERT_TRUE(tree.is_element(n));
    EXPECT_EQ(plane.pos_of(n), pos);
    EXPECT_EQ(plane.label(pos), tree.label(n));
    EXPECT_EQ(plane.has_text(pos), HasTextChild(tree, n)) << "pos " << pos;
    // Extent == subtree size; the subtree is the contiguous position
    // interval (pos, end_of(pos)) and every position in it descends from n.
    EXPECT_EQ(plane.extent(pos), CountElementDescendants(tree, n))
        << "pos " << pos;
    // Parent/depth arrays agree with the tree.
    if (tree.parent(n) == kNullNode) {
      EXPECT_EQ(plane.parent(pos), -1);
      EXPECT_EQ(plane.depth(pos), 0);
    } else {
      ASSERT_GE(plane.parent(pos), 0);
      EXPECT_EQ(plane.node_at(plane.parent(pos)), tree.parent(n));
      EXPECT_EQ(plane.depth(pos), plane.depth(plane.parent(pos)) + 1);
      // Children lie inside the parent's interval.
      EXPECT_GT(pos, plane.parent(pos));
      EXPECT_LT(pos, plane.end_of(plane.parent(pos)));
    }
    ++postings_seen[plane.label(pos)];
  }
  // Posting lists: sorted, duplicate-free, complete per label.
  int64_t total = 0;
  for (LabelId l = 0; l < tree.labels().size(); ++l) {
    auto p = plane.postings(l);
    EXPECT_EQ(static_cast<int64_t>(p.size()), postings_seen[l])
        << tree.labels().name(l);
    for (size_t i = 0; i < p.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(p[i - 1], p[i]);
      }
      EXPECT_EQ(plane.label(p[i]), l);
    }
    total += static_cast<int64_t>(p.size());
  }
  EXPECT_EQ(total, plane.size());
  // Out-of-range labels resolve to empty spans, not UB.
  EXPECT_TRUE(plane.postings(kNoLabel).empty());
  EXPECT_TRUE(plane.postings(tree.labels().size() + 7).empty());
}

TEST(DocPlaneTest, ExtentAndPostingPropertiesOnRandomTrees) {
  const std::vector<std::string> common = {"a", "b", "c", "d", "e"};
  const std::vector<std::string> rare = {"x", "y"};
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Tree tree = RandomTree(400, common, rare, 0.02, seed);
    CheckPlaneProperties(tree, DocPlane::Build(tree));
  }
  // Degenerate shapes: a single root, and a pure chain.
  Tree single;
  single.AddRoot("only");
  CheckPlaneProperties(single, DocPlane::Build(single));
  Tree chain;
  NodeId n = chain.AddRoot("c");
  for (int i = 0; i < 100; ++i) n = chain.AddElement(n, "c");
  DocPlane chain_plane = DocPlane::Build(chain);
  CheckPlaneProperties(chain, chain_plane);
  EXPECT_EQ(chain_plane.extent(0), 100);
  EXPECT_EQ(chain_plane.depth(100), 100);
}

TEST(DocPlaneTest, HospitalPlaneMatchesTree) {
  gen::HospitalParams params;
  params.patients = 25;
  params.seed = 11;
  Tree tree = gen::GenerateHospital(params);
  CheckPlaneProperties(tree, DocPlane::Build(tree));
}

TEST(DocPlaneTest, PostingPoolPacksAllLabels) {
  Tree tree;
  NodeId root = tree.AddRoot("r");
  for (int i = 0; i < 8; ++i) {
    NodeId w = tree.AddElement(root, "wrap");
    tree.AddElement(w, "leaf");
  }
  DocPlane plane = DocPlane::Build(tree);
  EXPECT_EQ(plane.postings(tree.labels().Lookup("wrap")).size(), 8u);
  EXPECT_EQ(plane.postings(tree.labels().Lookup("leaf")).size(), 8u);
  EXPECT_EQ(plane.postings(tree.labels().Lookup("r")).size(), 1u);
  EXPECT_GT(plane.MemoryBytes(), 0u);
}

// Builder misuse must surface in status() as a no-op, never as a corrupted
// plane: accepted-but-wrong text bits and extents would propagate through
// the Maintainer into every later epoch.
TEST(DocPlaneTest, BuilderMisuseIsRecordedNotAccepted) {
  {
    DocPlane::Builder builder;
    builder.MarkText();  // nothing open
    EXPECT_FALSE(builder.status().ok());
    EXPECT_EQ(builder.Finish(1, 1).size(), 0);
  }
  {
    DocPlane::Builder builder;
    builder.Exit();  // nothing open
    EXPECT_FALSE(builder.status().ok());
  }
  {
    DocPlane::Builder builder;
    builder.Enter(0, 0);
    builder.Exit();
    EXPECT_TRUE(builder.status().ok());
    builder.MarkText();  // root already closed: no open position
    EXPECT_FALSE(builder.status().ok());
  }
  {
    DocPlane::Builder builder;
    builder.Enter(0, 0);
    builder.Exit();
    EXPECT_EQ(builder.Enter(0, 1), -1);  // second root
    EXPECT_FALSE(builder.status().ok());
    EXPECT_EQ(builder.Finish(2, 1).size(), 0);
  }
  {
    DocPlane::Builder builder;
    builder.Enter(0, 0);
    builder.Enter(1, 1);
    builder.Exit();  // inner closed, root still open
    DocPlane plane = builder.Finish(2, 2);
    EXPECT_FALSE(builder.status().ok());  // unbalanced Finish
    EXPECT_EQ(plane.size(), 0);
  }
}

TEST(DocPlaneTest, BuilderCleanSequenceStaysOk) {
  Tree tree;
  NodeId root = tree.AddRoot("r");
  NodeId child = tree.AddElement(root, "c");
  tree.AddText(child, "t");

  DocPlane::Builder builder;
  builder.Enter(tree.label(root), root);
  builder.Enter(tree.label(child), child);
  builder.MarkText();
  builder.Exit();
  builder.Exit();
  EXPECT_TRUE(builder.status().ok());
  DocPlane plane = builder.Finish(tree.size(), tree.labels().size());
  EXPECT_TRUE(builder.status().ok());
  EXPECT_TRUE(plane.SameAs(DocPlane::Build(tree)));
}

TEST(DocPlaneTest, MaterializerEmitsPlaneMatchingBuild) {
  view::ViewDef view = gen::HospitalView();
  gen::HospitalParams params;
  params.patients = 12;
  params.seed = 5;
  Tree source = gen::GenerateHospital(params);
  auto mat = view::Materialize(view, source);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  const DocPlane& emitted = mat.value().plane;
  DocPlane rebuilt = DocPlane::Build(mat.value().tree);
  ASSERT_EQ(emitted.size(), rebuilt.size());
  for (int32_t pos = 0; pos < emitted.size(); ++pos) {
    EXPECT_EQ(emitted.label(pos), rebuilt.label(pos));
    EXPECT_EQ(emitted.parent(pos), rebuilt.parent(pos));
    EXPECT_EQ(emitted.depth(pos), rebuilt.depth(pos));
    EXPECT_EQ(emitted.extent(pos), rebuilt.extent(pos));
    EXPECT_EQ(emitted.has_text(pos), rebuilt.has_text(pos));
    EXPECT_EQ(emitted.node_at(pos), rebuilt.node_at(pos));
  }
  for (LabelId l = 0; l < mat.value().tree.labels().size(); ++l) {
    auto a = emitted.postings(l);
    auto b = rebuilt.postings(l);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  CheckPlaneProperties(mat.value().tree, emitted);
}

// ---- jump-mode equivalence ----

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

void ExpectStatsEqual(const hype::EvalStats& a, const hype::EvalStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.elements_visited, b.elements_visited) << what;
  EXPECT_EQ(a.cans_vertices, b.cans_vertices) << what;
  EXPECT_EQ(a.cans_edges, b.cans_edges) << what;
  EXPECT_EQ(a.afa_state_requests, b.afa_state_requests) << what;
}

// The oracle sandwich for one document/workload: naive answers == no-jump
// solo == jump solo == no-jump batch == jump batch, with traversal
// statistics bit-identical across all HyPE variants; returns the number of
// positions the jump drivers actually skipped (so callers can assert the
// mode engaged). `use_naive` = false drops the NaiveEvaluator leg (it is
// quadratic in depth; the deep-chain regression supplies its own expected
// answers) -- the no-jump solo pass then anchors the sandwich.
int64_t CheckJumpEquivalence(const Tree& tree,
                             const std::vector<std::string>& queries,
                             const hype::SubtreeLabelIndex* index,
                             bool use_naive = true) {
  std::vector<automata::Mfa> mfas = CompileAll(queries);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  DocPlane plane = DocPlane::Build(tree);

  eval::NaiveEvaluator naive(tree);
  int64_t jumped = 0;

  std::vector<NodeVec> baseline;
  std::vector<hype::EvalStats> baseline_stats;
  for (size_t i = 0; i < mfas.size(); ++i) {
    hype::EvalOptions off;
    off.index = index;
    off.plane = &plane;
    off.enable_jump = false;
    hype::HypeEvaluator solo_off(tree, mfas[i], off);
    baseline.push_back(solo_off.Eval(tree.root()));
    baseline_stats.push_back(solo_off.stats());
    if (use_naive) {
      auto parsed = xpath::ParseQuery(queries[i]);
      EXPECT_TRUE(parsed.ok()) << queries[i];
      if (!parsed.ok()) return 0;
      EXPECT_EQ(baseline.back(), naive.Eval(parsed.value(), tree.root()))
          << "no-jump solo vs naive: " << queries[i];
    }

    hype::EvalOptions on = off;
    on.enable_jump = true;
    hype::HypeEvaluator solo_on(tree, mfas[i], on);
    EXPECT_EQ(solo_on.Eval(tree.root()), baseline.back())
        << "jump solo: " << queries[i];
    ExpectStatsEqual(solo_on.stats(), baseline_stats.back(),
                     "solo jump vs full-DFS stats: " + queries[i]);
    jumped += solo_on.pass_stats().positions_jumped;
  }

  for (bool jump : {false, true}) {
    hype::EvalOptions options;
    options.index = index;
    options.plane = &plane;
    options.enable_jump = jump;
    hype::BatchHypeEvaluator batch(tree, ptrs, options);
    std::vector<NodeVec> answers = batch.EvalAll(tree.root());
    EXPECT_EQ(answers.size(), mfas.size());
    if (answers.size() != mfas.size()) return 0;
    for (size_t i = 0; i < mfas.size(); ++i) {
      EXPECT_EQ(answers[i], baseline[i])
          << "batch(jump=" << jump << ") vs solo: " << queries[i];
      ExpectStatsEqual(batch.stats(i), baseline_stats[i],
                       "batch(jump=" + std::to_string(jump) +
                           ") stats: " + queries[i]);
    }
    if (jump) jumped += batch.pass_stats().positions_jumped;
    // Repeat on warm joint tables: results must be stable.
    EXPECT_EQ(batch.EvalAll(tree.root()), answers);
  }
  return jumped;
}

TEST(JumpEquivalenceTest, LabelSparseRandomizedWorkloads) {
  const std::vector<std::string> common = {"filler0", "filler1", "filler2",
                                           "filler3", "filler4", "filler5"};
  const std::vector<std::string> rare = {"needle", "pin", "tack"};
  int64_t engaged = 0;
  for (uint64_t seed : {101u, 202u, 303u}) {
    Tree tree = RandomTree(600, common, rare, 0.01, seed);
    std::vector<std::string> queries = {
        "//needle",
        "//pin",
        "(*)*/tack",
        "//filler0/needle",
        "//needle/(*)*/pin",
        "//needle | //tack",
        "absent_label/needle",
    };
    engaged += CheckJumpEquivalence(tree, queries, nullptr);
  }
  // The whole point: jump mode must actually skip positions on label-sparse
  // documents, not silently fall back to the full DFS.
  EXPECT_GT(engaged, 0);
}

TEST(JumpEquivalenceTest, LabelDenseRandomizedWorkloads) {
  // Every label occurs everywhere: candidates are dense, transparency is
  // rare, and filters force framed engines -- the worst case must still be
  // exactly equivalent.
  const std::vector<std::string> common = {"a", "b"};
  for (uint64_t seed : {7u, 8u}) {
    Tree tree = RandomTree(300, common, {}, 0.0, seed);
    std::vector<std::string> queries = {
        "//a", "//b", "a/b", "//a[b]", "//a[not(b)]", "(a | b)*/a",
        "//a[b/text() = 'alpha']",
    };
    CheckJumpEquivalence(tree, queries, nullptr);
  }
}

TEST(JumpEquivalenceTest, RandomQueryGeneratorSweep) {
  const std::vector<std::string> common = {"filler0", "filler1", "filler2",
                                           "filler3"};
  const std::vector<std::string> rare = {"needle", "pin"};
  Tree tree = RandomTree(500, common, rare, 0.03, 99);

  gen::QueryGenParams qparams;
  qparams.labels = {"filler0", "filler1", "filler2", "filler3",
                    "needle",  "pin",     "absent"};
  qparams.text_values = {"alpha", "beta"};
  qparams.max_depth = 3;
  std::mt19937_64 rng(424242);
  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(xpath::ToString(gen::RandomQuery(qparams, &rng)));
  }
  CheckJumpEquivalence(tree, queries, nullptr);
}

TEST(JumpEquivalenceTest, IndexModesDisableJumpButStayEquivalent) {
  const std::vector<std::string> common = {"filler0", "filler1", "filler2"};
  const std::vector<std::string> rare = {"needle"};
  Tree tree = RandomTree(400, common, rare, 0.02, 55);
  std::vector<std::string> queries = {"//needle", "//filler1[needle]",
                                      "filler0/(*)*/needle"};
  hype::SubtreeLabelIndex full =
      hype::SubtreeLabelIndex::Build(tree, hype::SubtreeLabelIndex::Mode::kFull);
  hype::SubtreeLabelIndex compressed = hype::SubtreeLabelIndex::Build(
      tree, hype::SubtreeLabelIndex::Mode::kCompressed, 8);
  // Jump requires label-set-independent transitions; with an index the
  // drivers must run the full columnar DFS and still match.
  EXPECT_EQ(CheckJumpEquivalence(tree, queries, &full), 0);
  EXPECT_EQ(CheckJumpEquivalence(tree, queries, &compressed), 0);
}

TEST(JumpEquivalenceTest, DeepChainReplayRegression) {
  // A 50k-deep transparent chain with one needle at the bottom: the jump
  // driver must leap over (or, with filter engines framed, walk) the whole
  // chain without recursing and keep the counters exact. (No naive leg --
  // it is quadratic in depth -- so pin the expected answers by hand against
  // the no-jump solo baseline.)
  constexpr int kDepth = 50000;
  Tree tree;
  NodeId n = tree.AddRoot("chain");
  for (int i = 0; i < kDepth; ++i) n = tree.AddElement(n, "chain");
  NodeId needle = tree.AddElement(n, "needle");
  std::vector<std::string> queries = {"//needle", "(chain)*/needle",
                                      "//chain[needle]"};
  CheckJumpEquivalence(tree, queries, nullptr, /*use_naive=*/false);

  std::vector<automata::Mfa> needle_mfa = CompileAll({"//needle"});
  hype::HypeEvaluator solo(tree, needle_mfa[0]);
  EXPECT_EQ(solo.Eval(tree.root()), NodeVec{needle});
}

TEST(JumpEquivalenceTest, SubtreeContextsMatch) {
  // Jump must stay confined to the context's subtree when evaluation does
  // not start at the root.
  const std::vector<std::string> common = {"f0", "f1", "f2"};
  const std::vector<std::string> rare = {"needle"};
  Tree tree = RandomTree(300, common, rare, 0.03, 77);
  std::vector<automata::Mfa> mfas = CompileAll({"//needle", "f1/needle"});
  DocPlane plane = DocPlane::Build(tree);

  eval::NaiveEvaluator naive(tree);
  std::vector<NodeId> contexts;
  for (NodeId id = 0; id < tree.size(); id += 37) {
    if (tree.is_element(id)) contexts.push_back(id);
  }
  for (NodeId context : contexts) {
    for (size_t i = 0; i < mfas.size(); ++i) {
      hype::EvalOptions off;
      off.plane = &plane;
      off.enable_jump = false;
      hype::HypeEvaluator solo_off(tree, mfas[i], off);
      NodeVec expected = solo_off.Eval(context);

      hype::EvalOptions on = off;
      on.enable_jump = true;
      hype::HypeEvaluator solo_on(tree, mfas[i], on);
      EXPECT_EQ(solo_on.Eval(context), expected) << "context " << context;
      ExpectStatsEqual(solo_on.stats(), solo_off.stats(),
                       "context " + std::to_string(context));
    }
  }
}

}  // namespace
}  // namespace smoqe::xml
