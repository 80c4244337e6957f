// Subtree-label index powering OptHyPE and OptHyPE-C (Section 6, "Variants
// of HyPE").
//
// For every element the index knows (an over-approximation of) the set of
// element labels occurring *strictly below* it. HyPE consults it before
// descending: a requested NFA/AFA state that cannot possibly reach an
// accepting configuration with only those labels is dropped, and a child
// with no surviving states is skipped entirely.
//
// The index is keyed by xml::DocPlane position (preorder over elements; text
// nodes take no slot) and derived from a plane in one reverse-preorder scan.
// It keeps no reference to that plane: any plane of the same tree -- a
// from-scratch DocPlane::Build or a Maintainer-patched one, which are
// bit-identical -- addresses the same positions.
//
// Two storage modes:
//  - kFull (OptHyPE): one interned set id per position. Distinct sets are
//    hash-consed, so per-position storage is a single int32.
//  - kCompressed (OptHyPE-C): set ids are stored only for the root and for
//    positions whose subtree has at least `threshold` element descendants
//    (plane extent); smaller subtrees inherit the nearest indexed ancestor's
//    set (a superset, hence sound). This shrinks the index by roughly the
//    threshold factor while keeping the pruning power where it matters --
//    large subtrees. Resolving an arbitrary context is a bounded plane walk:
//    an unindexed position has extent < threshold and extents grow by at
//    least one per parent step, so the nearest indexed ancestor is at most
//    `threshold` steps up. Every lookup is a pure read of immutable arrays,
//    safe from any number of threads.

#ifndef SMOQE_HYPE_INDEX_H_
#define SMOQE_HYPE_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/name_table.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::hype {

class SubtreeLabelIndex {
 public:
  enum class Mode { kFull, kCompressed };

  /// An empty index (not usable for evaluation); assign from Build().
  SubtreeLabelIndex() = default;

  static SubtreeLabelIndex Build(const xml::DocPlane& plane, Mode mode,
                                 int threshold = 16);
  static SubtreeLabelIndex Build(const xml::Tree& tree, Mode mode,
                                 int threshold = 16) {
    return Build(xml::DocPlane::Build(tree), mode, threshold);
  }

  /// Set id for labels strictly below plane position `pos`.
  /// `parent_effective` must be the effective set of the parent position
  /// (use SetForContext at the evaluation context). O(1); in compressed mode
  /// a presence bitmap avoids hashing for the (majority of) positions
  /// without their own entry.
  int32_t EffectiveSet(int32_t pos, int32_t parent_effective) const {
    if (mode_ == Mode::kFull) return per_pos_[pos];
    if (!(has_entry_[pos / 64] >> (pos % 64) & 1)) return parent_effective;
    return sparse_.find(pos)->second;
  }

  /// Effective set at an arbitrary evaluation context `pos` of `plane` (a
  /// plane of the indexed tree). Compressed mode walks at most `threshold`
  /// plane parents to the nearest indexed ancestor.
  int32_t SetForContext(const xml::DocPlane& plane, int32_t pos) const {
    if (mode_ == Mode::kFull) return per_pos_[pos];
    while (!(has_entry_[pos / 64] >> (pos % 64) & 1)) pos = plane.parent(pos);
    return sparse_.find(pos)->second;
  }

  bool Contains(int32_t set_id, LabelId tree_label) const {
    if (tree_label < 0 || tree_label >= num_labels_) return false;
    return (set_pool_[static_cast<size_t>(set_id) * words_ + tree_label / 64] >>
            (tree_label % 64)) &
           1;
  }

  /// True iff the set contains no element labels at all (leaf subtree).
  bool IsEmpty(int32_t set_id) const {
    for (int w = 0; w < words_; ++w) {
      if (set_pool_[static_cast<size_t>(set_id) * words_ + w] != 0) return false;
    }
    return true;
  }

  int num_distinct_sets() const {
    return words_ == 0 ? 0 : static_cast<int>(set_pool_.size() / words_);
  }

  /// Index memory footprint (the number the OptHyPE-C comparison is about).
  size_t MemoryBytes() const;

  Mode mode() const { return mode_; }

 private:
  Mode mode_ = Mode::kFull;
  int num_labels_ = 0;
  int words_ = 0;
  std::vector<uint64_t> set_pool_;                // num_sets x words_
  std::vector<int32_t> per_pos_;                  // kFull
  std::unordered_map<int32_t, int32_t> sparse_;   // kCompressed
  std::vector<uint64_t> has_entry_;               // kCompressed bitmap
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_INDEX_H_
