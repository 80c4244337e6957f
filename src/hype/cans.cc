#include "hype/cans.h"

namespace smoqe::hype {

void CansGraph::CollectSince(const Mark& mark, std::vector<xml::NodeId>* out) {
  const VertexId base = mark.vertices;
  const size_t region_size = vertices_.size() - static_cast<size_t>(base);

  if (num_deleted_ == mark.deleted) {
    // Every vertex was created by an actual run prefix and nothing in the
    // region was disconnected: all its recorded answers stand, no
    // reachability needed.
    for (size_t k = mark.answers; k < answer_vertices_.size(); ++k) {
      out->push_back(vertices_[answer_vertices_[k]].answer);
    }
  } else if (answer_vertices_.size() > static_cast<size_t>(mark.answers)) {
    // Answer-driven reachability, O(|backward cone of the answers|) rather
    // than O(|region|): mark every alive vertex that can reach an answer
    // (reverse walk), then forward-walk from the alive initial vertices
    // expanding only inside that cone.
    if (cone_.size() < region_size) cone_.resize(region_size, 0);
    if (seen_.size() < region_size) seen_.resize(region_size, 0);
    int64_t epoch = ++seen_epoch_;

    work_.clear();
    for (size_t k = mark.answers; k < answer_vertices_.size(); ++k) {
      // Answer vertices are never deleted (deletion and answer marking both
      // happen at the vertex's own node pop, deletions first).
      VertexId v = answer_vertices_[k];
      cone_[v - base] = epoch;
      work_.push_back(v);
    }
    while (!work_.empty()) {
      VertexId v = work_.back();
      work_.pop_back();
      for (int32_t e = vertices_[v].first_redge; e != -1; e = edges_[e].rnext) {
        VertexId from = edges_[e].from;
        if (cone_[from - base] != epoch && vertices_[from].alive) {
          cone_[from - base] = epoch;
          work_.push_back(from);
        }
      }
    }

    for (size_t k = mark.initials; k < initials_.size(); ++k) {
      VertexId v = initials_[k];
      if (vertices_[v].alive && cone_[v - base] == epoch &&
          seen_[v - base] != epoch) {
        seen_[v - base] = epoch;
        work_.push_back(v);
      }
    }
    while (!work_.empty()) {
      VertexId v = work_.back();
      work_.pop_back();
      if (vertices_[v].answer != xml::kNullNode) {
        out->push_back(vertices_[v].answer);
      }
      for (int32_t e = vertices_[v].first_edge; e != -1; e = edges_[e].next) {
        VertexId to = edges_[e].to;
        if (seen_[to - base] != epoch && cone_[to - base] == epoch &&
            vertices_[to].alive) {
          seen_[to - base] = epoch;
          work_.push_back(to);
        }
      }
    }
  }

  // Retire the region: it no longer holds memory, but stays counted.
  peak_vertices_ = peak_vertices();
  retired_vertices_ += static_cast<int64_t>(region_size);
  retired_edges_ += static_cast<int64_t>(edges_.size()) - mark.edges;
  vertices_.resize(base);
  edges_.resize(mark.edges);
  initials_.resize(mark.initials);
  answer_vertices_.resize(mark.answers);
  num_deleted_ = mark.deleted;
}

}  // namespace smoqe::hype
