#include "hype/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "automata/afa.h"

namespace smoqe::hype {

using automata::AfaKind;
using automata::AfaState;
using automata::Mfa;

HypeEngine::HypeEngine(const xml::Tree& tree, const Mfa& mfa,
                       std::shared_ptr<TransitionPlane> plane,
                       const xml::DocPlane* doc_plane)
    : tree_(tree), mfa_(mfa), trans_(std::move(plane)), doc_plane_(doc_plane) {
  stats_.elements_total = tree_.CountElements();
  nfa_deleted_mark_.assign(mfa_.nfa.size(), 0);
}

HypeEngine::Frame& HypeEngine::GrowFrames(int depth) {
  while (static_cast<int>(frames_.size()) <= depth) {
    frames_.push_back(std::make_unique<Frame>());
  }
  return *frames_[depth];
}

int32_t HypeEngine::PrepareRoot(int32_t context_set) {
  stats_.elements_visited = 0;
  stats_.cans_vertices = 0;
  stats_.cans_edges = 0;
  stats_.cans_peak_vertices = 0;
  stats_.afa_state_requests = 0;
  answers_.clear();
  cans_.Reset();
  depth_ = -1;
  return trans_->ContextConfig(context_set, &stats_.configs_interned);
}

void HypeEngine::BeginFrames(int32_t config) {
  assert(depth_ == -1);
  Frame& bottom = FrameAt(0);
  bottom.config = config;
  bottom.aux = -1;
  bottom.entered_in_region = false;
  depth_ = 0;
  EnterNode();
}

void HypeEngine::DescendWith(SuccRef succ) {
  assert(depth_ >= 0);
  Frame& frame = *frames_[depth_];
  Frame& child = FrameAt(depth_ + 1);
  child.config = succ.config;
  child.aux = succ.aux;
  child.entered_in_region = frame.region;
  ++depth_;
  EnterNode();
}

// Prologue of one node of the pass. The node's configuration lives in the
// frame at the current depth; fvals (aligned with the config's freq) and
// cans vertices (aligned with its mstates) are initialized here.
//
// frame.region says whether cans bookkeeping is active: outside a region no
// filter guards any run prefix, so final states emit answers directly and no
// vertices are allocated. A region opens at the first node whose mstates
// contain an annotated state; its label-move seeds become the region's
// initial vertices, and its cans records start at the mark taken here.
void HypeEngine::EnterNode() {
  ++stats_.elements_visited;
  Frame& frame = *frames_[depth_];
  const Config& config = trans_->config(frame.config);
  stats_.afa_state_requests += static_cast<int64_t>(config.freq.size());

  bool opens_region = !frame.entered_in_region && config.any_annotated;
  frame.region = frame.entered_in_region || opens_region;

  frame.vcount = 0;
  frame.eff_aux = -1;
  if (opens_region) frame.cans_mark = cans_.mark();
  if (frame.region) {
    // Resolve the incoming cans edge mapping: from the parent directly, or
    // composed across barren pass-through ancestors.
    if (frame.entered_in_region && frame.aux >= 0) {
      const Frame& parent = *frames_[depth_ - 1];
      if (parent.vcount > 0) {
        frame.eff_aux = frame.aux;
        frame.eff_vbase = parent.vbase;
      } else if (parent.eff_aux >= 0) {
        frame.eff_aux = ComposeAuxCached(parent.eff_aux, frame.aux);
        frame.eff_vbase = parent.eff_vbase;
      }
    }
    // Only vertices that can be deleted (annotated) or can carry answers
    // (final) must materialize; connectivity through barren nodes is wired
    // directly via the composed mappings, and their ε-closure is already
    // folded into the transition's label edges (InternAux).
    if ((config.any_annotated || config.has_final) && !config.mstates.empty()) {
      frame.vcount = static_cast<int32_t>(config.mstates.size());
      frame.vbase = cans_.AddVertexRange(frame.vcount);
      if (opens_region) {
        // When a region opens here, only the unconditionally-valid entry
        // points (label-move seeds / the NFA start at the context) may seed
        // phase two; everything else must be reached through recorded
        // ε-edges so a deleted guard disconnects what hides behind it.
        for (int32_t i = 0; i < frame.vcount; ++i) {
          if (config.seeds[i]) cans_.MarkInitial(frame.vbase + i);
        }
      }
      if (config.any_annotated) {
        for (auto [i, j] : config.eps_pairs) {
          cans_.AddEdge(frame.vbase + i, frame.vbase + j);
        }
      }
    }
  }

  if (!config.freq.empty() || !frame.fvals.empty()) {
    frame.fvals.assign(config.freq.size(), 0);
  }
}

// Epilogue: evaluate final-state predicates, run the same-node operator
// fixpoint, delete vertices whose filter failed, report answers -- then fold
// this node's results into the parent frame through the precomputed edge
// data (the work the recursive Visit did after the child returned).
void HypeEngine::ExitNode(xml::NodeId node) {
  Frame& frame = *frames_[depth_];
  const Config& config = trans_->config(frame.config);
  const std::vector<StateId>& freq = config.freq;

  if (!freq.empty()) {
    const xml::DocPlane* plane = doc_plane_;
    for (int j : config.finals) {
      const AfaState& a = mfa_.afa[freq[j]];
      // Text-presence prefilter: no text child (one plane bit) means a
      // text() = 'c' predicate cannot hold -- skip the child walk and the
      // string compares of Tree::HasText.
      if (a.pred == automata::PredKind::kTextEquals && plane != nullptr &&
          !plane->has_text(plane->pos_of(node))) {
        frame.fvals[j] = 0;
        continue;
      }
      frame.fvals[j] = automata::FinalPredHolds(a, tree_, node) ? 1 : 0;
    }
    // Operator fixpoint. The ops sweep is in the CompiledMfa's stratified
    // order: operands precede operators except across genuine Kleene
    // cycles, where needs_iteration drives the loop to the (stratified)
    // fixpoint. A pruned operand (position -1) reads as false.
    bool changed = !config.ops.empty();
    while (changed) {
      changed = false;
      for (const Config::OpSpec& op : config.ops) {
        char v;
        if (op.kind == AfaKind::kOr) {
          v = 0;
          for (int p = op.begin; p < op.end; ++p) {
            int k = config.operand_pos[p];
            if (k >= 0 && frame.fvals[k]) {
              v = 1;
              break;
            }
          }
        } else if (op.kind == AfaKind::kAnd) {
          v = 1;
          for (int p = op.begin; p < op.end; ++p) {
            int k = config.operand_pos[p];
            if (k < 0 || !frame.fvals[k]) {
              v = 0;
              break;
            }
          }
        } else {  // kNot
          int k = config.operand_pos[op.begin];
          v = (k < 0 || !frame.fvals[k]) ? 1 : 0;
        }
        if (v != frame.fvals[op.idx]) {
          frame.fvals[op.idx] = v;
          changed = true;
        }
      }
      if (!config.needs_iteration) break;
    }
  }

  // Delete vertices whose filter failed; report answers.
  if (frame.region) {
    const std::vector<StateId>& mstates = config.mstates;
    int64_t deleted_epoch = ++nfa_deleted_epoch_;
    for (auto [i, pos] : config.annotated) {
      if (pos < 0 || !frame.fvals[pos]) {
        cans_.DeleteVertex(frame.vbase + i);
        nfa_deleted_mark_[mstates[i]] = deleted_epoch;
      }
    }
    for (int i : config.final_mstates) {
      if (nfa_deleted_mark_[mstates[i]] != deleted_epoch) {
        cans_.SetAnswer(frame.vbase + i, node);
      }
    }
  } else if (config.has_final) {
    answers_.push_back(node);
  }

  // Label edges nearest-materialized-ancestor state --...--> this node's
  // state (composed across barren pass-through nodes).
  if (frame.vcount > 0 && frame.eff_aux >= 0) {
    for (auto [i, j] : trans_->aux(frame.eff_aux).label_edges) {
      cans_.AddEdge(frame.eff_vbase + i, frame.vbase + j);
    }
  }
  if (depth_ > 0 && frame.aux >= 0) {
    Frame& parent = *frames_[depth_ - 1];
    // fstates↑: fold this node's truths into the parent's transition states.
    for (auto [idx, k] : trans_->aux(frame.aux).fold_pairs) {
      if (!parent.fvals[idx] && frame.fvals[k]) parent.fvals[idx] = 1;
    }
  }
  // Close the region at its root: every deletion in it has happened (all at
  // pops inside this subtree, this one last), and no cans edge crosses its
  // boundary, so its records alone decide its answers.
  if (frame.region && !frame.entered_in_region) {
    cans_.CollectSince(frame.cans_mark, &answers_);
  }
  --depth_;
}

std::vector<xml::NodeId> HypeEngine::TakeAnswers() {
  assert(cans_.resident_vertices() == 0 && "a completed pass closes regions");
  stats_.cans_vertices = cans_.num_vertices();
  stats_.cans_edges = cans_.num_edges();
  stats_.cans_peak_vertices = cans_.peak_vertices();
  std::vector<xml::NodeId> answers = std::move(answers_);
  answers_.clear();
  // Direct answers of navigation queries arrive in document order already
  // when node ids follow the DFS (pre-order emission): skip the sort then.
  if (!std::is_sorted(answers.begin(), answers.end())) {
    const size_t words = (static_cast<size_t>(tree_.size()) + 63) / 64;
    if (answers.size() >= 64 && answers.size() * 8 >= words) {
      // Dense answer sets (label-dense navigation emits answers at a sizable
      // fraction of all nodes) sort via a bitmap over the id space: O(n +
      // |T|/64) instead of O(n log n), and deduplication falls out of the
      // bits. This was the single hottest piece of the dense batch profile.
      answer_bits_.assign(words, 0);
      for (xml::NodeId id : answers) {
        answer_bits_[static_cast<size_t>(id) >> 6] |=
            uint64_t{1} << (id & 63);
      }
      answers.clear();
      for (size_t w = 0; w < words; ++w) {
        uint64_t bits = answer_bits_[w];
        while (bits != 0) {
          int b = std::countr_zero(bits);
          bits &= bits - 1;
          answers.push_back(static_cast<xml::NodeId>((w << 6) | b));
        }
      }
      return answers;
    }
    std::sort(answers.begin(), answers.end());
  }
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

}  // namespace smoqe::hype
