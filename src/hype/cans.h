// The cans ("candidate answers") DAG of Algorithm HyPE (Section 6).
//
// During HyPE's single top-down pass, every (tree node, NFA state) pair the
// run touches becomes a vertex; NFA transitions become edges (ε-edges stay
// within one tree node, label edges cross to a child). When an annotated
// state's AFA evaluates to false at a node, that vertex is deleted,
// disconnecting every candidate answer that depended on the failed filter.
// Answers are the ν-annotations of surviving final-state vertices reachable
// from the initial vertices.
//
// Phase two runs per REGION, not once per pass. The engine opens a region
// at a node whose parent lies outside every region and takes a Mark there;
// no edge crosses a region boundary (edges stay within one node or run from
// the nearest materialized ancestor in the same region), and every deletion
// in the region happens at a node pop inside its subtree. So when the
// region root pops, CollectSince(mark) sees the region's complete records:
// it appends the region's answers and truncates the graph back to the mark.
// The resident graph is then one region at a time instead of the whole
// pass, and a completed pass leaves it empty.
//
// Phase two is answer-driven: initial and answer vertices are recorded as
// they appear, so a region without deletions skips the reachability walk
// entirely (every recorded vertex is reachable by construction -- it was
// created by an actual run prefix), and a region with deletions walks with
// reusable epoch-marked scratch instead of per-call allocations.

#ifndef SMOQE_HYPE_CANS_H_
#define SMOQE_HYPE_CANS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "automata/mfa.h"
#include "xml/tree.h"

namespace smoqe::hype {

class CansGraph {
 public:
  using VertexId = int32_t;

  /// The resident sizes at one point of the run; records added after it
  /// form the region CollectSince walks. A default Mark is the empty graph.
  struct Mark {
    int32_t vertices = 0;
    int32_t edges = 0;
    int32_t initials = 0;
    int32_t answers = 0;
    int64_t deleted = 0;
  };

  /// Clears the graph for a fresh run, keeping the allocated capacity (the
  /// evaluators reuse one graph across Eval calls).
  void Reset() {
    vertices_.clear();
    edges_.clear();
    initials_.clear();
    answer_vertices_.clear();
    num_deleted_ = 0;
    retired_vertices_ = 0;
    retired_edges_ = 0;
    peak_vertices_ = 0;
  }

  Mark mark() const {
    return {static_cast<int32_t>(vertices_.size()),
            static_cast<int32_t>(edges_.size()),
            static_cast<int32_t>(initials_.size()),
            static_cast<int32_t>(answer_vertices_.size()), num_deleted_};
  }

  VertexId AddVertex(bool initial) {
    VertexId id = static_cast<VertexId>(vertices_.size());
    vertices_.push_back({xml::kNullNode, -1, -1, initial, true});
    if (initial) initials_.push_back(id);
    return id;
  }

  /// Bulk-creates `n` non-initial vertices with contiguous ids; returns the
  /// first id. One node's vertices being contiguous lets the evaluator keep
  /// a (base, count) pair per frame instead of a vector.
  VertexId AddVertexRange(int32_t n) {
    VertexId base = static_cast<VertexId>(vertices_.size());
    vertices_.resize(vertices_.size() + n,
                     Vertex{xml::kNullNode, -1, -1, false, true});
    return base;
  }

  void MarkInitial(VertexId v) {
    if (!vertices_[v].initial) {
      vertices_[v].initial = true;
      initials_.push_back(v);
    }
  }

  void AddEdge(VertexId from, VertexId to) {
    edges_.push_back({to, from, vertices_[from].first_edge,
                      vertices_[to].first_redge});
    vertices_[from].first_edge = static_cast<int32_t>(edges_.size() - 1);
    vertices_[to].first_redge = static_cast<int32_t>(edges_.size() - 1);
  }

  /// Removes the vertex (its AFA failed): phase two will not pass through it.
  void DeleteVertex(VertexId v) {
    if (vertices_[v].alive) {
      vertices_[v].alive = false;
      ++num_deleted_;
    }
  }

  /// ν(v) := n -- the vertex corresponds to a final state reached at n.
  void SetAnswer(VertexId v, xml::NodeId n) {
    vertices_[v].answer = n;
    answer_vertices_.push_back(v);
  }

  /// Phase two for the region added since `mark`: appends the answers of
  /// its alive answer vertices reachable from its alive initial vertices to
  /// `*out` (unsorted, possibly repeated), then truncates the graph back to
  /// `mark`.
  ///
  /// Contract: no edge may enter or leave the region, and the builder must
  /// only record answers on vertices that are reachable from the initial
  /// vertices in the DELETION-FREE graph (true for HyPE by construction:
  /// every vertex is created by an actual run prefix). When no vertex of
  /// the region was deleted, that reachability is assumed, not re-checked
  /// -- a disconnected answer vertex would be reported.
  void CollectSince(const Mark& mark, std::vector<xml::NodeId>* out);

  /// Vertices and edges created since Reset, collected regions included.
  int64_t num_vertices() const {
    return retired_vertices_ + static_cast<int64_t>(vertices_.size());
  }
  int64_t num_edges() const {
    return retired_edges_ + static_cast<int64_t>(edges_.size());
  }
  /// Vertices currently held (not yet collected).
  int64_t resident_vertices() const {
    return static_cast<int64_t>(vertices_.size());
  }
  /// High-water mark of resident_vertices() since Reset.
  int64_t peak_vertices() const {
    return std::max(peak_vertices_, resident_vertices());
  }

 private:
  struct Vertex {
    xml::NodeId answer;
    int32_t first_edge;
    int32_t first_redge;
    bool initial;
    bool alive;
  };
  struct Edge {
    VertexId to;
    VertexId from;
    int32_t next;
    int32_t rnext;
  };
  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  std::vector<VertexId> initials_;
  std::vector<VertexId> answer_vertices_;
  int64_t num_deleted_ = 0;
  // Records of collected regions (they count toward the run's totals).
  int64_t retired_vertices_ = 0;
  int64_t retired_edges_ = 0;
  // Resident size just before the latest truncations (the graph only grows
  // between them, so these are its local maxima).
  int64_t peak_vertices_ = 0;

  // Reusable phase-two scratch, indexed by vertex id minus the region's
  // first id (epoch-marked visited arrays: cone_ for the backward cone of
  // the answer vertices, seen_ for the forward walk). 64-bit epochs:
  // wraparound would silently alias stale marks.
  std::vector<int64_t> cone_;
  std::vector<int64_t> seen_;
  int64_t seen_epoch_ = 0;
  std::vector<VertexId> work_;
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_CANS_H_
