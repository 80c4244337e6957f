#include "hype/transition_plane.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "common/fault_injection.h"
#include "common/hashing.h"

namespace smoqe::hype {

using automata::AfaKind;
using automata::CompiledMfa;
using automata::kNoState;

namespace {

// Index of `id` in the sorted vector, or -1.
int IndexOf(const std::vector<automata::StateId>& sorted,
            automata::StateId id) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), id);
  if (it == sorted.end() || *it != id) return -1;
  return static_cast<int>(it - sorted.begin());
}

}  // namespace

TransitionPlane::TransitionPlane(
    const xml::Tree& tree, const automata::Mfa& mfa,
    std::shared_ptr<const automata::CompiledMfa> compiled,
    const SubtreeLabelIndex* index)
    : tree_(tree),
      mfa_(mfa),
      compiled_(compiled != nullptr
                    ? std::move(compiled)
                    : std::make_shared<const automata::CompiledMfa>(
                          automata::CompiledMfa::Build(mfa))),
      index_(index),
      num_tree_labels_(static_cast<int32_t>(tree.labels().size())) {
  const CompiledMfa& cm = *compiled_;
  // Bind MFA labels to the document's label table once; unbound labeled
  // moves can never match an element and are dropped from the CSR.
  std::vector<LabelId> binding(mfa_.labels.size());
  for (LabelId l = 0; l < mfa_.labels.size(); ++l) {
    binding[l] = tree_.labels().Lookup(mfa_.labels.name(l));
  }
  const int n = cm.num_nfa_states();
  edge_begin_.assign(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    edge_begin_[s + 1] = edge_begin_[s];
    for (const CompiledMfa::Edge& e : cm.TransOf(s)) {
      if (e.label == kNoLabel) continue;
      LabelId t = binding[e.label];
      if (t == kNoLabel) continue;
      edges_.push_back({t, e.to});
      ++edge_begin_[s + 1];
    }
  }
  const int m = cm.num_afa_states();
  afa_tree_label_.assign(m, kNoLabel);
  for (StateId s = 0; s < m; ++s) {
    if (cm.afa_kind[s] == AfaKind::kTrans && cm.afa_label[s] != kNoLabel) {
      afa_tree_label_[s] = binding[cm.afa_label[s]];
    }
  }
  nfa_mark_.assign(n, 0);
  nfa_mark2_.assign(n, 0);
  afa_mark_.assign(m, 0);
}

// After index-based filtering, drop every state no longer ε-reachable from a
// surviving seed (see the engine-era comment: states hiding behind a pruned
// annotated guard must disappear with it).
void TransitionPlane::RestrictToSeedReachableLocked(
    std::vector<StateId>* mstates, std::vector<char>* seeds) {
  const CompiledMfa& cm = *compiled_;
  int64_t member = ++nfa_epoch_;
  for (StateId s : *mstates) nfa_mark_[s] = member;
  int64_t reach = ++nfa_epoch2_;
  reach_work_.clear();
  for (size_t i = 0; i < mstates->size(); ++i) {
    if ((*seeds)[i]) {
      nfa_mark2_[(*mstates)[i]] = reach;
      reach_work_.push_back((*mstates)[i]);
    }
  }
  for (size_t i = 0; i < reach_work_.size(); ++i) {
    for (StateId e : cm.EpsOf(reach_work_[i])) {
      if (nfa_mark_[e] == member && nfa_mark2_[e] != reach) {
        nfa_mark2_[e] = reach;
        reach_work_.push_back(e);
      }
    }
  }
  size_t w = 0;
  for (size_t i = 0; i < mstates->size(); ++i) {
    if (nfa_mark2_[(*mstates)[i]] == reach) {
      (*mstates)[w] = (*mstates)[i];
      (*seeds)[w] = (*seeds)[i];
      ++w;
    }
  }
  mstates->resize(w);
  seeds->resize(w);
}

const TransitionPlane::Productive& TransitionPlane::ProductiveForLocked(
    int32_t set_id) {
  auto it = productive_cache_.find(set_id);
  if (it != productive_cache_.end()) return it->second;

  const CompiledMfa& cm = *compiled_;
  const SubtreeLabelIndex& index = *index_;
  auto label_available = [&](LabelId tree_label, bool wildcard) {
    if (wildcard) return !index.IsEmpty(set_id);
    return tree_label != kNoLabel && index.Contains(set_id, tree_label);
  };

  Productive prod;
  // CanBeTrue over AFA states: least fixpoint of a monotone system (NOT is
  // conservatively "can be true": its operand may be false below).
  const int m = cm.num_afa_states();
  prod.afa_cbt.assign(m, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < m; ++s) {
      if (prod.afa_cbt[s]) continue;
      bool v = false;
      switch (cm.afa_kind[s]) {
        case AfaKind::kFinal:
        case AfaKind::kNot:
          v = true;
          break;
        case AfaKind::kTrans:
          v = label_available(afa_tree_label_[s], cm.afa_wild[s] != 0) &&
              prod.afa_cbt[cm.afa_target[s]];
          break;
        case AfaKind::kOr:
          for (StateId o : cm.OperandsOf(s)) v = v || prod.afa_cbt[o];
          break;
        case AfaKind::kAnd:
          v = true;
          for (StateId o : cm.OperandsOf(s)) v = v && prod.afa_cbt[o];
          break;
      }
      if (v) {
        prod.afa_cbt[s] = 1;
        changed = true;
      }
    }
  }

  // Selecting-state productivity: can reach a final state using available
  // labels, through states whose annotations can still be true.
  const int n = cm.num_nfa_states();
  prod.sel.assign(n, 0);
  auto valid = [&](StateId s) {
    StateId e = cm.afa_entry[s];
    return e == kNoState || prod.afa_cbt[e];
  };
  changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < n; ++s) {
      if (prod.sel[s] || !valid(s)) continue;
      bool v = cm.IsNfaFinal(s);
      for (const TreeEdge& t : EdgesOf(s)) {
        if (v) break;
        v = label_available(t.label, false) && prod.sel[t.to];
      }
      for (StateId t : cm.WildOf(s)) {
        if (v) break;
        v = label_available(kNoLabel, true) && prod.sel[t];
      }
      for (StateId e : cm.EpsOf(s)) {
        if (v) break;
        v = prod.sel[e] != 0;
      }
      if (v) {
        prod.sel[s] = 1;
        changed = true;
      }
    }
  }
  return productive_cache_.emplace(set_id, std::move(prod)).first->second;
}

// Interns the configuration currently held in tmp_m_ / tmp_seeds_ / tmp_f_.
// Everything the per-node hot paths need is precomputed here; the ops sweep
// is laid out in the CompiledMfa's stratified order.
int32_t TransitionPlane::InternConfigLocked() {
  uint64_t h = HashCombine(tmp_m_.size(), tmp_f_.size());
  for (StateId s : tmp_m_) h = HashCombine(h, static_cast<uint64_t>(s));
  for (char c : tmp_seeds_) h = HashCombine(h, static_cast<uint64_t>(c));
  for (StateId s : tmp_f_) h = HashCombine(h, static_cast<uint64_t>(s));
  std::vector<int32_t>& bucket = config_buckets_[h];
  for (int32_t id : bucket) {
    const Config& c = configs_[id];
    if (c.mstates == tmp_m_ && c.seeds == tmp_seeds_ && c.freq == tmp_f_) {
      return id;
    }
  }
  const CompiledMfa& cm = *compiled_;
  int32_t id = configs_.Append();
  Config& config = configs_[id];
  config.mstates = tmp_m_;
  config.seeds = tmp_seeds_;
  config.freq = tmp_f_;
  config.dead = tmp_m_.empty() && tmp_f_.empty();
  for (size_t i = 0; i < tmp_m_.size(); ++i) {
    StateId s = tmp_m_[i];
    if (cm.afa_entry[s] != kNoState) {
      config.any_annotated = true;
      config.annotated.push_back(
          {static_cast<int>(i), IndexOf(tmp_f_, cm.afa_entry[s])});
    }
    if (cm.IsNfaFinal(s)) {
      config.has_final = true;
      config.final_mstates.push_back(static_cast<int>(i));
    }
    for (StateId e : cm.EpsOf(s)) {
      int j = IndexOf(tmp_m_, e);
      if (j >= 0) config.eps_pairs.push_back({static_cast<int32_t>(i), j});
    }
  }
  // Operator states first collected in freq order, then swept in stratified
  // rank order: operands precede operators except inside one SCC, where the
  // fixpoint loop takes over (needs_iteration).
  std::vector<int> op_order;
  for (size_t j = 0; j < tmp_f_.size(); ++j) {
    StateId u = tmp_f_[j];
    switch (cm.afa_kind[u]) {
      case AfaKind::kFinal:
        config.finals.push_back(static_cast<int>(j));
        break;
      case AfaKind::kTrans:
        config.ftrans.push_back({static_cast<int>(j), cm.afa_target[u],
                                 afa_tree_label_[u], cm.afa_wild[u] != 0});
        break;
      default:
        op_order.push_back(static_cast<int>(j));
        break;
    }
  }
  std::sort(op_order.begin(), op_order.end(), [&](int a, int b) {
    return cm.afa_rank[tmp_f_[a]] < cm.afa_rank[tmp_f_[b]];
  });
  for (int j : op_order) {
    StateId u = tmp_f_[j];
    Config::OpSpec op;
    op.kind = cm.afa_kind[u];
    op.idx = j;
    op.begin = static_cast<int>(config.operand_pos.size());
    for (StateId o : cm.OperandsOf(u)) {
      config.operand_pos.push_back(IndexOf(tmp_f_, o));
      if (config.operand_pos.back() >= 0 && cm.afa_scc[o] == cm.afa_scc[u]) {
        config.needs_iteration = true;
      }
    }
    op.end = static_cast<int>(config.operand_pos.size());
    config.ops.push_back(op);
  }
  // Lazy tables, allocated eagerly so readers never observe a null row.
  if (index_ == nullptr) {
    config.next = std::make_unique<std::atomic<uint64_t>[]>(num_tree_labels_);
    for (int32_t l = 0; l < num_tree_labels_; ++l) {
      config.next[l].store(kEmptySlot, std::memory_order_relaxed);
    }
  } else {
    config.next_by_eff =
        std::make_unique<std::atomic<Config::EffNode*>[]>(num_tree_labels_);
    for (int32_t l = 0; l < num_tree_labels_; ++l) {
      config.next_by_eff[l].store(nullptr, std::memory_order_relaxed);
    }
  }
  bucket.push_back(id);
  total_interned_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Precomputes the parent→child edge data of one memoized transition (cans
// label edges + fstates↑ fold pairs); -1 when both are empty. When the child
// configuration has no annotated states its label edges are emitted ε-CLOSED
// (see the engine design note): connectivity through barren nodes needs no
// per-node ε materialization.
int32_t TransitionPlane::InternAuxLocked(int32_t from, LabelId tree_label,
                                         int32_t to) {
  const Config& p = configs_[from];
  const Config& c = configs_[to];
  const CompiledMfa& cm = *compiled_;
  TransAux aux;
  std::vector<std::vector<int32_t>> adj;
  std::vector<char> reach;
  std::vector<int32_t> work;
  if (!c.any_annotated && !c.eps_pairs.empty()) {
    adj.resize(c.mstates.size());
    for (auto [i, j] : c.eps_pairs) adj[i].push_back(j);
  }
  for (size_t i = 0; i < p.mstates.size(); ++i) {
    reach.assign(c.mstates.size(), 0);
    auto add_target = [&](StateId to_state) {
      int j = IndexOf(c.mstates, to_state);
      if (j < 0 || reach[j]) return;
      reach[j] = 1;
      aux.label_edges.push_back({static_cast<int32_t>(i), j});
      if (!adj.empty()) {
        work.assign(1, j);
        while (!work.empty()) {
          int32_t v = work.back();
          work.pop_back();
          for (int32_t e : adj[v]) {
            if (!reach[e]) {
              reach[e] = 1;
              aux.label_edges.push_back({static_cast<int32_t>(i), e});
              work.push_back(e);
            }
          }
        }
      }
    };
    for (const TreeEdge& t : EdgesOf(p.mstates[i])) {
      if (t.label == tree_label) add_target(t.to);
    }
    for (StateId t : cm.WildOf(p.mstates[i])) add_target(t);
  }
  for (const Config::FreqTrans& ft : p.ftrans) {
    if (!ft.wildcard && ft.tree_label != tree_label) continue;
    int k = IndexOf(c.freq, ft.target);
    if (k >= 0) aux.fold_pairs.push_back({ft.idx, k});
  }
  if (aux.label_edges.empty() && aux.fold_pairs.empty()) return -1;
  return InternAuxContentLocked(std::move(aux));
}

int32_t TransitionPlane::InternAuxContentLocked(TransAux aux) {
  uint64_t h = HashCombine(aux.label_edges.size(), aux.fold_pairs.size());
  for (auto [i, j] : aux.label_edges) {
    h = HashCombine(h, (static_cast<uint64_t>(i) << 32) |
                           static_cast<uint32_t>(j));
  }
  for (auto [i, j] : aux.fold_pairs) {
    h = HashCombine(h, ~((static_cast<uint64_t>(i) << 32) |
                         static_cast<uint32_t>(j)));
  }
  std::vector<int32_t>& bucket = aux_buckets_[h];
  for (int32_t id : bucket) {
    if (aux_[id].label_edges == aux.label_edges &&
        aux_[id].fold_pairs == aux.fold_pairs) {
      return id;
    }
  }
  int32_t id = aux_.Append();
  aux_[id] = std::move(aux);
  bucket.push_back(id);
  return id;
}

int32_t TransitionPlane::ComposeAux(int32_t a, int32_t b) {
  uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
                 static_cast<uint32_t>(b);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = compose_memo_.find(key);
    if (it != compose_memo_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = compose_memo_.find(key);
  if (it != compose_memo_.end()) return it->second;

  const std::vector<std::pair<int32_t, int32_t>>& ab = aux_[a].label_edges;
  const std::vector<std::pair<int32_t, int32_t>>& bc = aux_[b].label_edges;
  // Small relational join: map ab through bc, deduplicating pairs.
  TransAux out;
  for (auto [i, j] : ab) {
    for (auto [j2, k] : bc) {
      if (j2 != j) continue;
      bool dup = false;
      for (auto [oi, ok] : out.label_edges) {
        if (oi == i && ok == k) {
          dup = true;
          break;
        }
      }
      if (!dup) out.label_edges.push_back({i, k});
    }
  }
  int32_t id =
      out.label_edges.empty() ? -1 : InternAuxContentLocked(std::move(out));
  compose_memo_.emplace(key, id);
  return id;
}

SuccRef TransitionPlane::ComputeTransitionLocked(
    int32_t config, LabelId tree_label, int32_t eff_set) {
  const Config& cur = configs_[config];
  const CompiledMfa& cm = *compiled_;

  // NextNFAStates: label move, then ε-closure; move targets are seeds. The
  // closure is a union of precomputed per-state closures instead of a BFS.
  tmp_m_.clear();
  int64_t epoch = ++nfa_epoch_;
  auto mark_push = [&](StateId t) {
    if (nfa_mark_[t] != epoch) {
      nfa_mark_[t] = epoch;
      tmp_m_.push_back(t);
    }
  };
  for (StateId s : cur.mstates) {
    for (const TreeEdge& t : EdgesOf(s)) {
      if (t.label == tree_label) mark_push(t.to);
    }
    for (StateId t : cm.WildOf(s)) mark_push(t);
  }
  const size_t num_seeds = tmp_m_.size();
  for (size_t i = 0; i < num_seeds; ++i) {
    for (StateId c : cm.ClosureOf(tmp_m_[i])) mark_push(c);
  }
  tagged_.clear();
  for (size_t i = 0; i < tmp_m_.size(); ++i) {
    tagged_.push_back({tmp_m_[i], i < num_seeds ? char{1} : char{0}});
  }
  std::sort(tagged_.begin(), tagged_.end());
  tmp_seeds_.resize(tagged_.size());
  for (size_t i = 0; i < tagged_.size(); ++i) {
    tmp_m_[i] = tagged_[i].first;
    tmp_seeds_[i] = tagged_[i].second;
  }

  // NextAFAStates: transition moves, newly activated annotations, operator
  // closure.
  tmp_f_.clear();
  int64_t fepoch = ++afa_epoch_;
  auto add = [&](StateId s) {
    if (afa_mark_[s] != fepoch) {
      afa_mark_[s] = fepoch;
      tmp_f_.push_back(s);
    }
  };
  for (const Config::FreqTrans& ft : cur.ftrans) {
    if (ft.wildcard || ft.tree_label == tree_label) add(ft.target);
  }
  for (StateId s : tmp_m_) {
    if (cm.afa_entry[s] != kNoState) add(cm.afa_entry[s]);
  }
  for (size_t i = 0; i < tmp_f_.size(); ++i) {
    for (StateId o : cm.OperandsOf(tmp_f_[i])) add(o);
  }
  std::sort(tmp_f_.begin(), tmp_f_.end());

  if (index_ != nullptr) {
    const Productive& prod = ProductiveForLocked(eff_set);
    size_t w = 0;
    for (size_t i = 0; i < tmp_m_.size(); ++i) {
      if (prod.sel[tmp_m_[i]]) {
        tmp_m_[w] = tmp_m_[i];
        tmp_seeds_[w] = tmp_seeds_[i];
        ++w;
      }
    }
    tmp_m_.resize(w);
    tmp_seeds_.resize(w);
    RestrictToSeedReachableLocked(&tmp_m_, &tmp_seeds_);
    std::erase_if(tmp_f_, [&](StateId u) { return !prod.afa_cbt[u]; });
  }
  SuccRef succ;
  succ.config = InternConfigLocked();
  succ.aux = InternAuxLocked(config, tree_label, succ.config);
  return succ;
}

SuccRef TransitionPlane::TransitionLocked(int32_t config,
                                                           LabelId tree_label,
                                                           int32_t eff_set,
                                                           int64_t* interned) {
  Config& cur = configs_[config];
  if (index_ == nullptr) {
    uint64_t v = cur.next[tree_label].load(std::memory_order_relaxed);
    if (v != kEmptySlot) return Unpack(v);
    int64_t before = total_interned_.load(std::memory_order_relaxed);
    SuccRef succ = ComputeTransitionLocked(config, tree_label, eff_set);
    if (interned != nullptr) {
      *interned += total_interned_.load(std::memory_order_relaxed) - before;
    }
    cur.next[tree_label].store(Pack(succ), std::memory_order_release);
    return succ;
  }
  for (Config::EffNode* n =
           cur.next_by_eff[tree_label].load(std::memory_order_relaxed);
       n != nullptr; n = n->prev) {
    if (n->eff == eff_set) return n->succ;
  }
  int64_t before = total_interned_.load(std::memory_order_relaxed);
  SuccRef succ = ComputeTransitionLocked(config, tree_label, eff_set);
  if (interned != nullptr) {
    *interned += total_interned_.load(std::memory_order_relaxed) - before;
  }
  // `cur` stays valid across the compute: chunked slots never move.
  eff_nodes_.push_back(
      {eff_set, succ,
       cur.next_by_eff[tree_label].load(std::memory_order_relaxed)});
  cur.next_by_eff[tree_label].store(&eff_nodes_.back(),
                                    std::memory_order_release);
  return succ;
}

SuccRef TransitionPlane::Transition(int32_t config,
                                                     LabelId tree_label,
                                                     int32_t eff_set,
                                                     int64_t* interned) {
  Config& cur = configs_[config];
  if (index_ == nullptr) {
    uint64_t v = cur.next[tree_label].load(std::memory_order_acquire);
    if (v != kEmptySlot) return Unpack(v);
  } else {
    for (Config::EffNode* n =
             cur.next_by_eff[tree_label].load(std::memory_order_acquire);
         n != nullptr; n = n->prev) {
      if (n->eff == eff_set) return n->succ;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Delay-only site: stretches the writer-lock hold time on the cold
  // interning path so the chaos suite exercises readers blocked behind a
  // slow intern (errors here would poison the shared per-query plane, so
  // injected error statuses are dropped by construction).
  SMOQE_FAULT_DELAY_POINT(FaultSite::kPlaneIntern);
  return TransitionLocked(config, tree_label, eff_set, interned);
}

int32_t TransitionPlane::ContextConfigLocked(int32_t context_set) {
  const CompiledMfa& cm = *compiled_;
  // ε-closure of the start state; the start state itself is the only
  // unconditional entry point.
  tmp_m_.assign(cm.ClosureOf(mfa_.start).begin(),
                cm.ClosureOf(mfa_.start).end());
  tmp_seeds_.assign(tmp_m_.size(), 0);
  int si = IndexOf(tmp_m_, mfa_.start);
  if (si >= 0) tmp_seeds_[si] = 1;

  tmp_f_.clear();
  int64_t fepoch = ++afa_epoch_;
  auto add = [&](StateId s) {
    if (afa_mark_[s] != fepoch) {
      afa_mark_[s] = fepoch;
      tmp_f_.push_back(s);
    }
  };
  for (StateId s : tmp_m_) {
    if (cm.afa_entry[s] != kNoState) add(cm.afa_entry[s]);
  }
  for (size_t i = 0; i < tmp_f_.size(); ++i) {
    for (StateId o : cm.OperandsOf(tmp_f_[i])) add(o);
  }
  std::sort(tmp_f_.begin(), tmp_f_.end());

  if (index_ != nullptr) {
    const Productive& prod = ProductiveForLocked(context_set);
    size_t w = 0;
    for (size_t i = 0; i < tmp_m_.size(); ++i) {
      if (prod.sel[tmp_m_[i]]) {
        tmp_m_[w] = tmp_m_[i];
        tmp_seeds_[w] = tmp_seeds_[i];
        ++w;
      }
    }
    tmp_m_.resize(w);
    tmp_seeds_.resize(w);
    RestrictToSeedReachableLocked(&tmp_m_, &tmp_seeds_);
    std::erase_if(tmp_f_, [&](StateId u) { return !prod.afa_cbt[u]; });
  }

  int32_t root_config = InternConfigLocked();
  return configs_[root_config].dead ? -1 : root_config;
}

int32_t TransitionPlane::ContextConfig(int32_t context_set,
                                       int64_t* interned) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = root_config_cache_.find(context_set);
    if (it != root_config_cache_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = root_config_cache_.find(context_set);
  if (it != root_config_cache_.end()) return it->second;
  int64_t before = total_interned_.load(std::memory_order_relaxed);
  int32_t result = ContextConfigLocked(context_set);
  if (interned != nullptr) {
    *interned += total_interned_.load(std::memory_order_relaxed) - before;
  }
  root_config_cache_.emplace(context_set, result);
  return result;
}

std::span<const LabelId> TransitionPlane::RelevantLabels(int32_t config,
                                                         int64_t* interned) {
  Config& cur = configs_[config];
  if (cur.relevant_ready.load(std::memory_order_acquire)) return cur.relevant;
  assert(index_ == nullptr &&
         "relevant labels are only well-defined without an index");
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (cur.relevant_ready.load(std::memory_order_relaxed)) return cur.relevant;
  std::vector<LabelId> relevant;
  for (LabelId l = 0; l < num_tree_labels_; ++l) {
    if (TransitionLocked(config, l, 0, interned).config != config) {
      relevant.push_back(l);
    }
  }
  cur.relevant = std::move(relevant);
  cur.relevant_ready.store(true, std::memory_order_release);
  return cur.relevant;
}

int64_t TransitionPlane::ApproxBytes() const {
  // Exclusive rather than shared: size_ and the vectors below are written
  // under the exclusive lock, and this path is cold.
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto vec_bytes = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  // Whole chunks are allocated up front, so count their capacity; the
  // per-element terms below add only what the used elements own.
  int64_t bytes = configs_.capacity() * int64_t{sizeof(Config)} +
                  aux_.capacity() * int64_t{sizeof(TransAux)};
  const int32_t num_configs = configs_.size();
  for (int32_t id = 0; id < num_configs; ++id) {
    const Config& c = configs_[id];
    bytes += vec_bytes(c.mstates) + vec_bytes(c.seeds) + vec_bytes(c.freq) +
             vec_bytes(c.finals) + vec_bytes(c.ftrans) + vec_bytes(c.ops) +
             vec_bytes(c.operand_pos) + vec_bytes(c.annotated) +
             vec_bytes(c.final_mstates) + vec_bytes(c.eps_pairs) +
             vec_bytes(c.relevant);
    if (c.next != nullptr) {
      bytes += int64_t{num_tree_labels_} * sizeof(std::atomic<uint64_t>);
    }
    if (c.next_by_eff != nullptr) {
      bytes += int64_t{num_tree_labels_} * sizeof(std::atomic<Config::EffNode*>);
    }
  }
  const int32_t num_aux = aux_.size();
  for (int32_t id = 0; id < num_aux; ++id) {
    const TransAux& a = aux_[id];
    bytes += vec_bytes(a.label_edges) + vec_bytes(a.fold_pairs);
  }
  bytes += static_cast<int64_t>(eff_nodes_.size() * sizeof(Config::EffNode));
  // Hash-table overhead, counted coarsely per entry.
  bytes += static_cast<int64_t>(
      (config_buckets_.size() + aux_buckets_.size()) * 48 +
      (compose_memo_.size() + root_config_cache_.size()) * 24);
  return bytes;
}

std::shared_ptr<TransitionPlane> TransitionPlaneStore::For(
    const automata::Mfa* mfa,
    std::shared_ptr<const automata::CompiledMfa> compiled,
    std::shared_ptr<const automata::Mfa> keep_alive) {
  // Declared before the lock, so evicted planes and a plane that lost a
  // creation race are destroyed after it is released.
  std::vector<Entry> evicted;
  std::shared_ptr<TransitionPlane> built;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = planes_.find(mfa);
  if (it == planes_.end()) {
    lock.unlock();
    built = std::make_shared<TransitionPlane>(tree_, *mfa, std::move(compiled),
                                              index_);
    lock.lock();
    bool inserted;
    std::tie(it, inserted) = planes_.try_emplace(mfa);
    if (inserted) {
      lru_.push_front(Entry{mfa, std::move(built), nullptr});
      it->second = lru_.begin();
    }
  }
  Lru::iterator pos = it->second;
  lru_.splice(lru_.begin(), lru_, pos);
  if (pos->keep_alive == nullptr) pos->keep_alive = std::move(keep_alive);
  std::shared_ptr<TransitionPlane> plane = pos->plane;
  EvictLocked(&evicted);
  return plane;
}

void TransitionPlaneStore::EvictLocked(std::vector<Entry>* evicted) {
  // Soft eviction from the cold end: only planes no engine references
  // anymore (use_count 1 = ours, and nobody can acquire a copy without this
  // mutex). The caller's own plane is pinned by the copy it is about to
  // return. In-use planes are never dropped, so the cap bounds retained
  // memory, not correctness; the walk skips only those.
  if (options_.capacity == 0) return;
  auto it = lru_.end();
  while (lru_.size() > options_.capacity && it != lru_.begin()) {
    --it;
    if (it->plane.use_count() != 1) continue;
    planes_.erase(it->mfa);
    evicted->push_back(std::move(*it));
    it = lru_.erase(it);
    ++evictions_;
  }
}

size_t TransitionPlaneStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planes_.size();
}

PlaneStoreStats TransitionPlaneStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlaneStoreStats out;
  out.planes = static_cast<int64_t>(planes_.size());
  out.evictions = evictions_;
  for (const Entry& entry : lru_) {
    out.configs_interned += entry.plane->configs_interned();
    out.approx_bytes += entry.plane->ApproxBytes();
  }
  return out;
}

}  // namespace smoqe::hype
