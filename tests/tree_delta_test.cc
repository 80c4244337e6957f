// xml::TreeDelta and the incremental DocPlane maintainer.
//
// Three property families:
//  * Edit primitives and Fragment round-trips: detach/insert/relabel keep
//    the tree's reachable-node accounting and sibling numbering exact, and
//    Capture -> Instantiate reproduces a subtree structurally.
//  * Delta algebra: ApplyTo's inverse restores the original tree
//    (StructurallyEqual -- ids legitimately differ), Compose(a, b) applied
//    once equals a then b, and version admission rejects mismatches.
//  * Maintainer ≡ Build: across randomized delta streams (and a 120k-deep
//    spine), the plane patched through DocPlane::Maintainer is
//    BIT-IDENTICAL (DocPlane::SameAs -- labels, parents, depths, extents,
//    text bits, NodeId maps, postings) to a from-scratch DocPlane::Build of
//    the edited tree. This is the property the epoch publisher and the
//    mutation bench stand on.
//  * Evaluation on edited trees: after edits NodeIds are out of preorder
//    and the arena holds detached slots. The position-keyed subtree-label
//    index derived from a maintained plane matches one derived from a
//    rebuilt plane, and HyPE, OptHyPE and OptHyPE-C agree with the naive
//    evaluator there.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "eval/naive_evaluator.h"
#include "gen/query_generator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"
#include "xpath/printer.h"

namespace smoqe::xml {
namespace {

const char* const kLabels[] = {"a", "b", "c", "d", "e"};

// Reachable elements in document order (iterative; excludes tombstones).
std::vector<NodeId> ReachableElements(const Tree& tree) {
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (tree.is_element(n)) out.push_back(n);
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      stack.push_back(c);
    }
  }
  return out;
}

Tree RandomTree(int num_elements, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Tree tree;
  std::vector<NodeId> elements = {tree.AddRoot("a")};
  for (int i = 1; i < num_elements; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(tree.AddElement(parent, kLabels[rng() % 5]));
    if (coin(rng) < 0.2) {
      tree.AddText(elements.back(), coin(rng) < 0.5 ? "alpha" : "beta");
    }
  }
  return tree;
}

Fragment RandomFragment(std::mt19937_64& rng, int max_elements) {
  // Built on a scratch tree so Capture's preorder discipline is exercised.
  Tree scratch;
  std::vector<NodeId> elements = {scratch.AddRoot(kLabels[rng() % 5])};
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const int n = 1 + static_cast<int>(rng() % max_elements);
  for (int i = 1; i < n; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(scratch.AddElement(parent, kLabels[rng() % 5]));
    if (coin(rng) < 0.3) scratch.AddText(elements.back(), "gamma");
  }
  return Fragment::Capture(scratch, scratch.root());
}

// A delta of `num_ops` random edits, generated against a scratch copy so
// each op targets a node that is live at its point in the sequence.
TreeDelta RandomDelta(const Tree& tree, uint64_t version, int num_ops,
                      std::mt19937_64& rng) {
  Tree scratch = tree;
  TreeDelta delta(version);
  for (int i = 0; i < num_ops; ++i) {
    std::vector<NodeId> elements = ReachableElements(scratch);
    const int kind = static_cast<int>(rng() % 3);
    if (kind == 0 && elements.size() > 1) {  // delete a non-root subtree
      NodeId victim = elements[1 + rng() % (elements.size() - 1)];
      delta.AddDelete(victim);
      TreeDelta step(0);
      step.AddDelete(victim);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch delete";
    } else if (kind == 1) {  // insert a fragment at a random slot
      NodeId parent = elements[rng() % elements.size()];
      const int32_t slot = static_cast<int32_t>(rng() % 4);  // 0 = append
      Fragment fragment = RandomFragment(rng, 6);
      delta.AddInsert(parent, slot, fragment);
      TreeDelta step(0);
      step.AddInsert(parent, slot, std::move(fragment));
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch insert";
    } else {  // relabel
      NodeId node = elements[rng() % elements.size()];
      const char* label = kLabels[rng() % 5];
      delta.AddRelabel(node, label);
      TreeDelta step(0);
      step.AddRelabel(node, label);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch relabel";
    }
  }
  return delta;
}

TEST(TreeMutationTest, DetachKeepsAccountingAndSiblingOrder) {
  Tree tree;
  NodeId root = tree.AddRoot("a");
  NodeId c1 = tree.AddElement(root, "b");
  NodeId c2 = tree.AddElement(root, "c");
  NodeId c3 = tree.AddElement(root, "d");
  tree.AddText(c2, "t");
  tree.AddElement(c2, "e");
  const int32_t elements_before = tree.CountElements();
  const int32_t texts_before = tree.CountTexts();

  tree.DetachSubtree(c2);
  EXPECT_EQ(tree.CountElements(), elements_before - 2);
  EXPECT_EQ(tree.CountTexts(), texts_before - 1);
  EXPECT_EQ(tree.CountDetached(), 3);
  EXPECT_EQ(tree.first_child(root), c1);
  EXPECT_EQ(tree.next_sibling(c1), c3);
  EXPECT_EQ(tree.child_index(c3), 2);  // renumbered after the detach
  EXPECT_EQ(tree.parent(c2), kNullNode);
}

TEST(TreeMutationTest, InsertBeforeRenumbersAndCounts) {
  Tree tree;
  NodeId root = tree.AddRoot("a");
  NodeId c1 = tree.AddElement(root, "b");
  NodeId c2 = tree.AddElement(root, "c");
  NodeId mid = tree.InsertElementBefore(root, c2, "d");
  EXPECT_EQ(tree.next_sibling(c1), mid);
  EXPECT_EQ(tree.next_sibling(mid), c2);
  EXPECT_EQ(tree.child_index(mid), 2);
  EXPECT_EQ(tree.child_index(c2), 3);
  EXPECT_EQ(tree.CountElements(), 4);
  NodeId tail = tree.InsertElementBefore(root, kNullNode, "e");
  EXPECT_EQ(tree.next_sibling(c2), tail);
  EXPECT_EQ(tree.child_index(tail), 4);
  tree.Relabel(mid, "z");
  EXPECT_EQ(tree.label_name(mid), "z");
  EXPECT_EQ(tree.CountSubtreeElements(root), 5);
}

TEST(TreeDeltaTest, FragmentRoundTrip) {
  Tree source = RandomTree(40, 11);
  std::vector<NodeId> elements = ReachableElements(source);
  for (NodeId n : elements) {
    Fragment fragment = Fragment::Capture(source, n);
    EXPECT_EQ(fragment.CountElements(), source.CountSubtreeElements(n));
    Tree target;
    target.AddRoot("host");
    NodeId copy = fragment.Instantiate(&target, target.root(), 0);
    // The copy must mirror the source subtree; compare via re-capture.
    Fragment again = Fragment::Capture(target, copy);
    ASSERT_EQ(again.items.size(), fragment.items.size());
    for (size_t i = 0; i < fragment.items.size(); ++i) {
      EXPECT_EQ(again.items[i].is_text, fragment.items[i].is_text);
      EXPECT_EQ(again.items[i].parent, fragment.items[i].parent);
      EXPECT_EQ(again.items[i].value, fragment.items[i].value);
    }
  }
}

TEST(TreeDeltaTest, InverseRestoresStructure) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    Tree tree = RandomTree(60, 100 + round);
    const Tree original = tree;
    TreeDelta delta = RandomDelta(tree, 0, 1 + round % 5, rng);
    TreeDelta inverse;
    ASSERT_TRUE(delta.ApplyTo(&tree, nullptr, &inverse).ok());
    EXPECT_EQ(inverse.from_version(), delta.to_version());
    EXPECT_EQ(inverse.to_version(), delta.from_version());
    ASSERT_TRUE(inverse.ApplyTo(&tree).ok());
    EXPECT_TRUE(StructurallyEqual(tree, original)) << "round " << round;
  }
}

TEST(TreeDeltaTest, InverseRemapsTargetsInsideDeletedSubtrees) {
  // Edit inside a subtree, then delete that subtree: the undo of the inner
  // edit must follow the re-instantiated (fresh-id) copy, not the
  // tombstoned original. Exercises the dry-run remap in ApplyTo,
  // including a nested delete-inside-delete.
  Tree tree;
  NodeId root = tree.AddRoot("a");
  NodeId outer = tree.AddElement(root, "b");
  NodeId mid = tree.AddElement(outer, "c");
  NodeId inner = tree.AddElement(mid, "d");
  tree.AddText(inner, "t");
  tree.AddElement(outer, "e");
  const Tree original = tree;

  TreeDelta delta(0);
  delta.AddRelabel(inner, "z");   // inside mid, inside outer
  delta.AddDelete(mid);           // deletes inner's subtree
  {
    Tree scratch;
    scratch.AddRoot("f");
    delta.AddInsert(outer, 1, Fragment::Capture(scratch, scratch.root()));
  }
  delta.AddDelete(outer);         // deletes the re-... everything above
  TreeDelta inverse;
  ASSERT_TRUE(delta.ApplyTo(&tree, nullptr, &inverse).ok());
  ASSERT_TRUE(inverse.ApplyTo(&tree).ok());
  EXPECT_TRUE(StructurallyEqual(tree, original));
}

TEST(TreeDeltaTest, ComposeEqualsSequentialApplication) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 10; ++round) {
    Tree tree = RandomTree(50, 200 + round);
    Tree sequential = tree;
    TreeDelta first = RandomDelta(sequential, 0, 3, rng);
    ASSERT_TRUE(first.ApplyTo(&sequential).ok());
    TreeDelta second = RandomDelta(sequential, 1, 3, rng);
    ASSERT_TRUE(second.ApplyTo(&sequential).ok());

    auto composed = TreeDelta::Compose(first, second);
    ASSERT_TRUE(composed.ok());
    EXPECT_EQ(composed.value().from_version(), 0u);
    EXPECT_EQ(composed.value().to_version(), 2u);
    Tree once = tree;
    ASSERT_TRUE(composed.value().ApplyTo(&once).ok());
    EXPECT_TRUE(StructurallyEqual(once, sequential)) << "round " << round;
  }
}

TEST(TreeDeltaTest, ComposeRejectsVersionMismatch) {
  TreeDelta first(0);
  TreeDelta second(5);
  auto composed = TreeDelta::Compose(first, second);
  ASSERT_FALSE(composed.ok());
  EXPECT_EQ(composed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TreeDeltaTest, ApplyRejectsBadTargets) {
  Tree tree = RandomTree(10, 3);
  {
    TreeDelta delta(0);
    delta.AddDelete(tree.root());
    EXPECT_FALSE(delta.ApplyTo(&tree).ok());
  }
  {
    TreeDelta delta(0);
    delta.AddRelabel(tree.size() + 5, "z");
    EXPECT_FALSE(delta.ApplyTo(&tree).ok());
  }
  {
    // A detached node is not a valid target.
    Tree t2 = RandomTree(10, 4);
    std::vector<NodeId> elements = ReachableElements(t2);
    NodeId victim = elements.back();
    t2.DetachSubtree(victim);
    TreeDelta delta(0);
    delta.AddRelabel(victim, "z");
    EXPECT_FALSE(delta.ApplyTo(&t2).ok());
  }
}

TEST(TreeDeltaTest, MaintainerMatchesBuildOnRandomStreams) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 15; ++round) {
    Tree tree = RandomTree(80, 300 + round);
    DocPlane plane = DocPlane::Build(tree);
    uint64_t version = 0;
    for (int step = 0; step < 8; ++step) {
      TreeDelta delta = RandomDelta(tree, version, 1 + step % 3, rng);
      DocPlane::Maintainer maintainer(plane);
      ASSERT_TRUE(delta.ApplyTo(&tree, &maintainer).ok())
          << "round " << round << " step " << step;
      plane = maintainer.Take(tree);
      DocPlane fresh = DocPlane::Build(tree);
      ASSERT_TRUE(plane.SameAs(fresh))
          << "maintained plane diverged from Build, round " << round
          << " step " << step;
      version = delta.to_version();
    }
  }
}

TEST(TreeDeltaTest, MaintainerMatchesBuildOnDeepSpine) {
  // A 120k-deep spine: every walk in the delta/maintainer path must be
  // iterative, and ancestor-extent patching touches the whole chain.
  constexpr int kDepth = 120000;
  Tree tree;
  NodeId n = tree.AddRoot("a");
  for (int i = 1; i < kDepth; ++i) {
    n = tree.AddElement(n, kLabels[i % 3]);
  }
  const NodeId bottom = n;
  tree.AddText(bottom, "leaf");
  DocPlane plane = DocPlane::Build(tree);

  // Insert near the bottom, relabel mid-spine, then delete the insert.
  TreeDelta grow(0);
  {
    Tree scratch;
    scratch.AddRoot("d");
    scratch.AddElement(scratch.root(), "e");
    grow.AddInsert(bottom, 0, Fragment::Capture(scratch, scratch.root()));
  }
  grow.AddRelabel(kDepth / 2, "b");
  TreeDelta inverse;
  DocPlane::Maintainer maintainer(plane);
  ASSERT_TRUE(grow.ApplyTo(&tree, &maintainer, &inverse).ok());
  plane = maintainer.Take(tree);
  ASSERT_TRUE(plane.SameAs(DocPlane::Build(tree)));

  DocPlane::Maintainer undo(plane);
  ASSERT_TRUE(inverse.ApplyTo(&tree, &undo).ok());
  plane = undo.Take(tree);
  ASSERT_TRUE(plane.SameAs(DocPlane::Build(tree)));
  EXPECT_EQ(plane.size(), kDepth);
}

// Applies `num_deltas` random deltas to `tree`, carrying `plane` along
// through DocPlane::Maintainer.
void EditWithMaintainer(Tree* tree, DocPlane* plane, int num_deltas,
                        std::mt19937_64& rng) {
  uint64_t version = 0;
  for (int step = 0; step < num_deltas; ++step) {
    TreeDelta delta = RandomDelta(*tree, version, 1 + step % 3, rng);
    DocPlane::Maintainer maintainer(*plane);
    ASSERT_TRUE(delta.ApplyTo(tree, &maintainer).ok()) << "step " << step;
    *plane = maintainer.Take(*tree);
    version = delta.to_version();
  }
}

// Per label id: does it occur strictly below `node`?
std::vector<char> LabelsBelow(const Tree& tree, NodeId node) {
  std::vector<char> below(tree.labels().size(), 0);
  std::vector<NodeId> stack;
  for (NodeId c = tree.first_child(node); c != kNullNode;
       c = tree.next_sibling(c)) {
    stack.push_back(c);
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (!tree.is_element(n)) continue;
    below[tree.label(n)] = 1;
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      stack.push_back(c);
    }
  }
  return below;
}

TEST(TreeDeltaTest, SubtreeLabelIndexFollowsMaintainedPlane) {
  using hype::SubtreeLabelIndex;
  std::mt19937_64 rng(41);
  for (int round = 0; round < 6; ++round) {
    Tree tree = RandomTree(80, 700 + round);
    DocPlane plane = DocPlane::Build(tree);
    for (int edit = 0; edit < 4; ++edit) {
      EditWithMaintainer(&tree, &plane, 2, rng);
      const DocPlane fresh = DocPlane::Build(tree);
      for (SubtreeLabelIndex::Mode mode : {SubtreeLabelIndex::Mode::kFull,
                                           SubtreeLabelIndex::Mode::kCompressed}) {
        const SubtreeLabelIndex patched =
            SubtreeLabelIndex::Build(plane, mode, /*threshold=*/4);
        const SubtreeLabelIndex rebuilt =
            SubtreeLabelIndex::Build(fresh, mode, /*threshold=*/4);
        for (int32_t pos = 0; pos < plane.size(); ++pos) {
          const int32_t got = patched.SetForContext(plane, pos);
          const int32_t want = rebuilt.SetForContext(fresh, pos);
          const std::vector<char> below = LabelsBelow(tree, plane.node_at(pos));
          for (LabelId l = 0; l < tree.labels().size(); ++l) {
            ASSERT_EQ(patched.Contains(got, l), rebuilt.Contains(want, l))
                << "round " << round << " edit " << edit << " pos " << pos
                << " label " << tree.labels().name(l);
            // Full sets are exact; compressed ones may only over-approximate.
            if (mode == SubtreeLabelIndex::Mode::kFull) {
              ASSERT_EQ(patched.Contains(got, l), below[l] != 0);
            } else if (below[l]) {
              ASSERT_TRUE(patched.Contains(got, l));
            }
          }
        }
      }
    }
  }
}

TEST(TreeDeltaTest, HypeVariantsMatchNaiveOnEditedTrees) {
  using hype::SubtreeLabelIndex;
  gen::QueryGenParams qparams;
  qparams.labels = {"a", "b", "c", "d", "e", "z"};
  qparams.text_values = {"alpha", "beta", "gamma"};
  std::mt19937_64 rng(57);
  for (int round = 0; round < 5; ++round) {
    Tree tree = RandomTree(60, 900 + round);
    DocPlane plane = DocPlane::Build(tree);
    EditWithMaintainer(&tree, &plane, 3, rng);
    const SubtreeLabelIndex full =
        SubtreeLabelIndex::Build(plane, SubtreeLabelIndex::Mode::kFull);
    const SubtreeLabelIndex compressed = SubtreeLabelIndex::Build(
        plane, SubtreeLabelIndex::Mode::kCompressed, /*threshold=*/4);

    std::vector<NodeId> contexts = {tree.root()};
    const std::vector<NodeId> elements = ReachableElements(tree);
    for (int i = 0; i < 4; ++i) {
      contexts.push_back(elements[rng() % elements.size()]);
    }
    eval::NaiveEvaluator naive(tree);
    for (int q = 0; q < 12; ++q) {
      xpath::PathPtr query = gen::RandomQuery(qparams, &rng);
      automata::Mfa mfa = automata::CompileQuery(query);
      for (const SubtreeLabelIndex* index :
           {static_cast<const SubtreeLabelIndex*>(nullptr), &full,
            &compressed}) {
        hype::EvalOptions options;
        options.index = index;
        options.plane = &plane;
        hype::HypeEvaluator hype_eval(tree, mfa, options);
        for (NodeId context : contexts) {
          eval::NodeSet want = naive.Eval(query, context);
          std::vector<NodeId> got = hype_eval.Eval(context);
          std::sort(want.begin(), want.end());
          std::sort(got.begin(), got.end());
          EXPECT_EQ(got, want)
              << (index == nullptr ? "HyPE"
                  : index == &full ? "OptHyPE"
                                   : "OptHyPE-C")
              << " disagrees with naive on " << xpath::ToString(query)
              << " at context " << context << ", round " << round;
        }
      }
    }
  }
}

}  // namespace
}  // namespace smoqe::xml
