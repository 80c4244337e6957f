#include "hype/batch_hype.h"

#include <algorithm>
#include <cassert>

#include "common/hashing.h"

namespace smoqe::hype {

BatchHypeEvaluator::BatchHypeEvaluator(const xml::Tree& tree,
                                       std::vector<const automata::Mfa*> mfas,
                                       EvalOptions options)
    : tree_(tree),
      options_(options),
      plane_owned_(options.plane == nullptr ? xml::DocPlane::Build(tree)
                                            : xml::DocPlane{}) {
  if (options_.plane == nullptr) options_.plane = &plane_owned_;
  assert(options_.plane->size() == tree.CountElements() &&
         "plane must mirror the evaluated tree");
  assert((options_.plane_store == nullptr ||
          options_.plane_store->index() == options_.index) &&
         "shared transition planes must use the evaluator's index");
  engines_.reserve(mfas.size());
  for (const automata::Mfa* mfa : mfas) {
    std::shared_ptr<TransitionPlane> plane =
        options_.plane_store != nullptr
            ? options_.plane_store->For(mfa)
            : std::make_shared<TransitionPlane>(tree, *mfa, nullptr,
                                                options_.index);
    // The plane's text-presence bits prefilter text() predicates at pop time.
    engines_.push_back(
        std::make_unique<HypeEngine>(tree, *mfa, std::move(plane),
                                     options_.plane));
  }
}

int32_t BatchHypeEvaluator::InternState(std::vector<Member> members) {
  uint64_t h = members.size();
  for (const Member& m : members) {
    h = HashCombine(h, m.engine);
    h = HashCombine(h, static_cast<uint64_t>(m.config));
    h = HashCombine(h, m.framed ? 1u : 0u);
  }
  std::vector<int32_t>& bucket = state_buckets_[h];
  auto equal = [](const std::vector<Member>& a, const std::vector<Member>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].engine != b[i].engine || a[i].config != b[i].config ||
          a[i].framed != b[i].framed) {
        return false;
      }
    }
    return true;
  };
  for (int32_t id : bucket) {
    if (equal(states_[id]->members, members)) return id;
  }
  auto state = std::make_unique<JointState>();
  for (const Member& m : members) {
    if (m.framed) {
      state->framed.push_back(m.engine);
    } else if (engines_[m.engine]->ConfigHasFinal(m.config)) {
      state->frameless_finals.push_back(m.engine);
    }
  }
  state->members = std::move(members);
  int32_t id = static_cast<int32_t>(states_.size());
  states_.push_back(std::move(state));
  bucket.push_back(id);
  return id;
}

int64_t BatchHypeEvaluator::ComputeEdge(int32_t state, LabelId label,
                                        int32_t eff_set) {
  JointAction action;
  std::vector<Member> child_members;
  for (const Member& m : states_[state]->members) {
    HypeEngine& engine = *engines_[m.engine];
    SuccRef succ = engine.PeekTransition(m.config, label, eff_set);
    if (engine.ConfigDead(succ.config)) continue;  // this engine prunes
    bool framed = m.framed || !engine.ConfigSimple(succ.config);
    child_members.push_back({m.engine, succ.config, framed});
    if (framed) {
      if (m.framed) {
        action.descend.push_back({m.engine, succ});
      } else {
        action.begin.push_back({m.engine, succ.config});
      }
    }
  }
  int32_t next = -1;
  if (!child_members.empty()) next = InternState(std::move(child_members));
  int32_t action_id = -1;
  if (!action.descend.empty() || !action.begin.empty()) {
    action_id = static_cast<int32_t>(actions_.size());
    actions_.push_back(std::move(action));
  }
  return PackEdge(next, action_id);
}

int64_t BatchHypeEvaluator::EdgeFor(JointState& st, int32_t state,
                                    LabelId label, int32_t eff_set) {
  if (options_.index == nullptr) {
    if (st.edges.empty()) st.edges.assign(tree_.labels().size(), kEdgeUnset);
    int64_t& slot = st.edges[label];
    if (slot == kEdgeUnset) slot = ComputeEdge(state, label, eff_set);
    return slot;
  }
  if (st.edges_by_eff.empty()) st.edges_by_eff.resize(tree_.labels().size());
  std::vector<std::pair<int32_t, int64_t>>& slots = st.edges_by_eff[label];
  for (const auto& [eff, edge] : slots) {
    if (eff == eff_set) return edge;
  }
  int64_t edge = ComputeEdge(state, label, eff_set);
  // `st` stays valid: JointState objects are heap-stable (unique_ptr).
  slots.emplace_back(eff_set, edge);
  return edge;
}

// Derives (once per joint state) whether a frame holding this state may scan
// by posting list, and with which labels. Jumpable states have only
// frameless, final-free members: a position whose label is in no member's
// relevant set is then transparent for the whole batch -- every member
// self-loops, so the joint state (and with it every joint decision, answer,
// and prune) is unchanged, and the full DFS would have entered the position
// with no effect beyond the visit counters. Candidates are entered through
// the ordinary joint edge of THIS state, which is exactly the edge the full
// DFS would take at the candidate's transparent parent.
bool BatchHypeEvaluator::JumpPlanFor(int32_t state) {
  JointState& st = *states_[state];
  if (st.jump_ready) return st.jumpable;
  st.jump_ready = true;
  if (!st.framed.empty() || !st.frameless_finals.empty()) return false;
  for (const Member& m : st.members) {
    std::span<const LabelId> r = engines_[m.engine]->RelevantLabels(m.config);
    st.jump_labels.insert(st.jump_labels.end(), r.begin(), r.end());
  }
  std::sort(st.jump_labels.begin(), st.jump_labels.end());
  st.jump_labels.erase(
      std::unique(st.jump_labels.begin(), st.jump_labels.end()),
      st.jump_labels.end());
  // Density gate: leaping pays a lower_bound per candidate per label, the
  // linear scan one table lookup per position. Only jump when the merged
  // posting mass says most positions will actually be skipped (label-DENSE
  // states fall back to the full columnar scan; answers are identical
  // either way, this is purely a cost model).
  int64_t posting_mass = 0;
  for (LabelId l : st.jump_labels) {
    posting_mass += static_cast<int64_t>(options_.plane->postings(l).size());
  }
  st.jumpable = posting_mass * 4 < options_.plane->size();
  if (!st.jumpable) st.jump_labels.clear();
  return st.jumpable;
}

void BatchHypeEvaluator::RunJointPass(int32_t top_pos, int32_t top_eff,
                                      int32_t root_state, EvalGate* gate) {
  const SubtreeLabelIndex* index = options_.index;
  const xml::DocPlane& plane = *options_.plane;
  const bool jump_allowed = options_.enable_jump && index == nullptr;

  auto enter = [&](JointState& st, int32_t id, xml::NodeId node) {
    if (st.visits++ == 0) touched_states_.push_back(id);
    ++pass_stats_.nodes_walked;
    for (uint32_t e : st.frameless_finals) engines_[e]->EmitAnswer(node);
  };

  {
    JointState& root = *states_[root_state];
    for (const Member& m : root.members) {
      if (m.framed) engines_[m.engine]->BeginFrames(m.config);
    }
    enter(root, root_state, plane.node_at(top_pos));
  }
  std::vector<WalkFrame>& stack = walk_stack_;
  stack.clear();
  stack.push_back({top_pos, plane.end_of(top_pos), top_pos + 1, top_eff,
                   root_state, states_[root_state].get(),
                   jump_allowed && JumpPlanFor(root_state)});

  while (!stack.empty()) {
    // One poll per walk step: a step enters at most one node, so an abort
    // lands within `checkpoint_interval` node entries of the cancel event.
    // The caller (EvalSubtree) unwinds the partial pass state.
    if (gate != nullptr && !gate->Poll()) return;

    WalkFrame& frame = stack.back();

    // Locate the next position to enter: the cursor itself (full scan) or
    // the next posting of a relevant label (jump mode). Jumped-over
    // positions are transparent -- the joint state holds across them -- so
    // they are accounted to the state in bulk and distributed to the member
    // engines' visit counters after the pass, exactly like `visits`.
    int32_t c = frame.end;
    if (frame.cursor < frame.end) {
      if (!frame.jump) {
        c = frame.cursor;
      } else {
        int32_t next = frame.end;
        for (LabelId l : frame.st->jump_labels) {
          std::span<const int32_t> p = plane.postings(l);
          auto it = std::lower_bound(p.begin(), p.end(), frame.cursor);
          if (it != p.end() && *it < next) next = *it;
        }
        int64_t skipped;
        if (next >= frame.end) {
          skipped = frame.end - frame.cursor;
          frame.cursor = frame.end;
        } else {
          skipped = next - frame.cursor;
          frame.cursor = next;
          c = next;
        }
        frame.st->jumped += skipped;
        pass_stats_.positions_jumped += skipped;
      }
    }

    if (c >= frame.end) {
      for (uint32_t e : frame.st->framed) {
        engines_[e]->ExitNode(plane.node_at(frame.pos));
      }
      stack.pop_back();
      continue;
    }

    // Decode the child and resolve its subtree label set once; advance the
    // whole batch with one packed joint-table entry.
    const LabelId cl = plane.label(c);
    const int32_t eff_c =
        index != nullptr ? index->EffectiveSet(c, frame.eff_set)
                         : frame.eff_set;
    const int32_t cend = plane.end_of(c);
    frame.cursor = cend;
    const int64_t edge = EdgeFor(*frame.st, frame.joint, cl, eff_c);
    const int32_t next = EdgeNext(edge);
    if (next < 0) {
      ++pass_stats_.subtrees_skipped;  // every engine pruned this subtree
      continue;
    }
    const int32_t action = EdgeAction(edge);
    JointState* next_st = states_[next].get();
    if (action < 0 && cend == c + 1) {
      // Action-free LEAF: no engine needs a frame and there are no children
      // to scan, so the full enter/exit round-trip collapses to the enter
      // effects -- the dominant shape on label-dense navigation batches.
      enter(*next_st, next, plane.node_at(c));
      continue;
    }
    if (action >= 0) {
      const JointAction& a = actions_[action];
      for (const auto& [e, succ] : a.descend) engines_[e]->DescendWith(succ);
      for (const auto& [e, cfg] : a.begin) engines_[e]->BeginFrames(cfg);
    }
    enter(*next_st, next, plane.node_at(c));
    stack.push_back({c, cend, c + 1, eff_c, next, next_st,
                     jump_allowed && JumpPlanFor(next)});
  }
}

std::vector<std::vector<xml::NodeId>> BatchHypeEvaluator::EvalAll(
    xml::NodeId context, EvalGate* gate) {
  return EvalSubtree(context, context, gate);
}

std::vector<std::vector<xml::NodeId>> BatchHypeEvaluator::EvalSubtree(
    xml::NodeId context, xml::NodeId top, EvalGate* gate) {
  pass_stats_ = SharedPassStats{};
  // Entry refresh: a pass that is already cancelled or past its deadline
  // must abort before any work, countdown notwithstanding (the tree may be
  // smaller than one checkpoint interval). Mirrors the sharded entry point.
  if (gate != nullptr && !gate->Refresh()) {
    return std::vector<std::vector<xml::NodeId>>(engines_.size());
  }
  const SubtreeLabelIndex* index = options_.index;
  const xml::DocPlane& plane = *options_.plane;
  const int32_t context_pos = plane.pos_of(context);
  const int32_t top_pos = plane.pos_of(top);

  // The context→top spine positions, top-down (empty when top == context),
  // with the effective subtree-label set at each position (and at top).
  std::vector<int32_t> path;
  for (int32_t p = top_pos; p != context_pos; p = plane.parent(p)) {
    if (p < 0) {
      // `top` is not in the subtree of `context`: a caller bug, but keep it
      // diagnosable rather than undefined (empty answers, loud in debug).
      assert(false && "EvalSubtree: top must be a descendant of context");
      return std::vector<std::vector<xml::NodeId>>(engines_.size());
    }
    path.push_back(p);
  }
  std::reverse(path.begin(), path.end());
  const int32_t context_set =
      index != nullptr ? index->SetForContext(plane, context_pos) : 0;
  int32_t eff = context_set;
  std::vector<int32_t> path_effs;
  path_effs.reserve(path.size());
  for (int32_t p : path) {
    if (index != nullptr) eff = index->EffectiveSet(p, eff);
    path_effs.push_back(eff);
  }

  std::vector<Member> root_members;
  for (size_t i = 0; i < engines_.size(); ++i) {
    HypeEngine& engine = *engines_[i];
    int32_t config = engine.PrepareRoot(context_set);
    for (size_t k = 0; k < path.size() && config >= 0; ++k) {
      SuccRef succ =
          engine.PeekTransition(config, plane.label(path[k]), path_effs[k]);
      config = engine.ConfigDead(succ.config) ? -1 : succ.config;
    }
    if (config < 0) continue;  // dead at or above top: no answers here
    root_members.push_back(
        {static_cast<uint32_t>(i), config, !engine.ConfigSimple(config)});
  }
  if (!root_members.empty()) {
    RunJointPass(top_pos, eff, InternState(std::move(root_members)), gate);
  }
  if (gate != nullptr && gate->tripped()) {
    // Aborted mid-pass: reset the per-pass counters on every touched joint
    // state WITHOUT distributing them (the run's statistics are discarded
    // along with its answers), leaving the evaluator ready for the next
    // pass. Engines reset themselves at their next PrepareRoot.
    for (int32_t id : touched_states_) {
      states_[id]->visits = 0;
      states_[id]->jumped = 0;
    }
    touched_states_.clear();
    return std::vector<std::vector<xml::NodeId>>(engines_.size());
  }

  // Frameless engines never touched their per-node counters; recover their
  // visit totals from the joint states entered by this pass (a frameless
  // member of a state was live at every node the state was entered at, and
  // at every transparent position jump mode skipped under it -- jumped > 0
  // only for states whose members are all frameless).
  for (int32_t id : touched_states_) {
    JointState& st = *states_[id];
    for (const Member& m : st.members) {
      if (!m.framed) engines_[m.engine]->AddVisited(st.visits + st.jumped);
    }
    st.visits = 0;
    st.jumped = 0;
  }
  touched_states_.clear();

  std::vector<std::vector<xml::NodeId>> answers;
  answers.reserve(engines_.size());
  for (const std::unique_ptr<HypeEngine>& e : engines_) {
    answers.push_back(e->TakeAnswers());
  }
  return answers;
}

}  // namespace smoqe::hype
