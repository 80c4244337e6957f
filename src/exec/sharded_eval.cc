#include "exec/sharded_eval.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <utility>

#include "common/fault_injection.h"

namespace smoqe::exec {

namespace {

// Sums the per-run traversal counters of `add` into `into` (configs_interned
// is cumulative per engine, so callers overwrite it instead).
void AccumulateRun(hype::EvalStats* into, const hype::EvalStats& add) {
  into->elements_visited += add.elements_visited;
  into->cans_vertices += add.cans_vertices;
  into->cans_edges += add.cans_edges;
  into->afa_state_requests += add.afa_state_requests;
}

}  // namespace

ShardedBatchEvaluator::ShardedBatchEvaluator(
    const xml::Tree& tree, std::vector<const automata::Mfa*> mfas,
    ShardedOptions options)
    : tree_(tree),
      mfas_(std::move(mfas)),
      options_(options),
      plane_owned_(options.plane == nullptr ? xml::DocPlane::Build(tree)
                                            : xml::DocPlane{}),
      plane_(options.plane == nullptr ? &plane_owned_ : options.plane),
      store_owned_(options.plane_store == nullptr
                       ? std::make_unique<hype::TransitionPlaneStore>(
                             tree, options.index)
                       : nullptr),
      store_(options.plane_store == nullptr ? store_owned_.get()
                                            : options.plane_store) {
  probes_.reserve(mfas_.size());
  for (const automata::Mfa* mfa : mfas_) probes_.push_back(store_->For(mfa));
}

ShardedBatchEvaluator::~ShardedBatchEvaluator() = default;

// Decomposes the subtree of `context` into units: starting from the element
// children, the heaviest unit is recursively replaced by its children (the
// replaced node joining the spine) until there are enough units to feed the
// shard groups. Units keep document order throughout; groups are contiguous
// unit ranges balanced by subtree element counts. All sizing comes from the
// plane's extents -- weighing a subtree is O(1) and enumerating element
// children is a cursor walk over the preorder arrays, so building a plan no
// longer pays an O(N) weight pre-pass per context.
void ShardedBatchEvaluator::BuildPlan(xml::NodeId context) {
  plan_ = Plan{};
  plan_.context = context;

  const int pool_width =
      options_.pool != nullptr ? options_.pool->num_threads() : 1;
  const int target = options_.num_shards > 0 ? options_.num_shards
                                             : std::max(1, 2 * pool_width);

  const xml::DocPlane& plane = *plane_;
  auto weight = [&](int32_t pos) {
    return static_cast<int64_t>(plane.extent(pos)) + 1;
  };
  // Appends the element children of `pos` as units (child positions are
  // pos + 1, then each sibling one extent past the previous).
  auto push_child_units = [&](int32_t pos, int spine_idx,
                              std::vector<Unit>* out) {
    const int32_t end = plane.end_of(pos);
    for (int32_t c = pos + 1; c < end; c = plane.end_of(c)) {
      out->push_back({plane.node_at(c), c, weight(c), spine_idx});
    }
  };
  auto element_children = [&](int32_t pos) {
    int count = 0;
    const int32_t end = plane.end_of(pos);
    for (int32_t c = pos + 1; c < end; c = plane.end_of(c)) ++count;
    return count;
  };

  const hype::SubtreeLabelIndex* index = options_.index;
  const int32_t context_pos = plane.pos_of(context);
  plan_.spine.push_back(
      {context, context_pos, -1,
       index != nullptr ? index->SetForContext(plane, context_pos) : 0});
  push_child_units(context_pos, 0, &plan_.units);

  while (static_cast<int>(plan_.units.size()) < target) {
    int best = -1;
    for (size_t i = 0; i < plan_.units.size(); ++i) {
      if (plan_.units[i].weight <= 1) continue;
      if (best >= 0 && plan_.units[i].weight <= plan_.units[best].weight) {
        continue;
      }
      if (element_children(plan_.units[i].pos) >= 2) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // nothing splittable: accept fewer units
    Unit split = plan_.units[best];
    int spine_idx = static_cast<int>(plan_.spine.size());
    plan_.spine.push_back(
        {split.root, split.pos, split.spine,
         index != nullptr
             ? index->EffectiveSet(split.pos, plan_.spine[split.spine].eff)
             : 0});
    std::vector<Unit> kids;
    push_child_units(split.pos, spine_idx, &kids);
    plan_.units.erase(plan_.units.begin() + best);
    plan_.units.insert(plan_.units.begin() + best, kids.begin(), kids.end());
  }

  // Contiguous greedy partition into at most `target` balanced groups.
  const int num_groups =
      std::min<int>(target, static_cast<int>(plan_.units.size()));
  int64_t remaining = 0;
  for (const Unit& u : plan_.units) remaining += u.weight;
  size_t i = 0;
  for (int g = 0; g < num_groups; ++g) {
    const size_t begin = i;
    // Leave at least one unit for each group still to come.
    const size_t max_end =
        plan_.units.size() - static_cast<size_t>(num_groups - g - 1);
    const int64_t goal = remaining / (num_groups - g);
    int64_t acc = 0;
    while (i < max_end && (acc == 0 || acc + plan_.units[i].weight <= goal)) {
      acc += plan_.units[i].weight;
      ++i;
    }
    if (g == num_groups - 1) i = plan_.units.size();
    plan_.groups.push_back(
        {static_cast<int>(begin), static_cast<int>(i)});
    remaining -= acc;
  }
}

// Classifies every query for plan_.context: dead at the context (answered
// empty), shardable (every live spine configuration is simple), or fallback
// (some spine configuration carries AFA state or annotations, i.e. filter
// truth would have to cross a unit boundary). Also collects the answers AT
// spine nodes for shardable queries -- the one part of the document no unit
// walk covers.
void ShardedBatchEvaluator::ProbeQueries() {
  const size_t n = mfas_.size();
  sharded_queries_.clear();
  fallback_queries_.clear();
  spine_answers_.assign(n, {});
  spine_visits_.assign(n, 0);
  stats_.num_dead_queries = 0;

  std::vector<int32_t> spine_cfg;
  for (size_t q = 0; q < n; ++q) {
    hype::TransitionPlane& probe = *probes_[q];
    spine_cfg.assign(plan_.spine.size(), -1);
    spine_cfg[0] = probe.ContextConfig(plan_.spine[0].eff, nullptr);
    if (spine_cfg[0] < 0) {
      ++stats_.num_dead_queries;
      continue;
    }
    bool shardable = true;
    for (size_t j = 0; j < plan_.spine.size(); ++j) {
      if (j > 0) {
        // Spine parents precede their children (appended at split time), so
        // the parent configuration is already resolved.
        int32_t parent_cfg = spine_cfg[plan_.spine[j].parent];
        if (parent_cfg < 0) continue;  // pruned above: subtree untouched
        hype::SuccRef succ =
            probe.Transition(parent_cfg, plane_->label(plan_.spine[j].pos),
                             plan_.spine[j].eff, nullptr);
        if (probe.config(succ.config).dead) continue;
        spine_cfg[j] = succ.config;
      }
      ++spine_visits_[q];
      const hype::TransitionPlane::Config& cfg = probe.config(spine_cfg[j]);
      if (!cfg.IsSimple()) {
        shardable = false;
        break;
      }
      if (cfg.has_final) {
        spine_answers_[q].push_back(plan_.spine[j].node);
      }
    }
    if (shardable) {
      sharded_queries_.push_back(static_cast<uint32_t>(q));
    } else {
      spine_answers_[q].clear();  // the whole-tree fallback emits these
      spine_visits_[q] = 0;
      fallback_queries_.push_back(static_cast<uint32_t>(q));
    }
  }
}

void ShardedBatchEvaluator::EnsureWorkers() {
  hype::BatchHypeOptions batch_options;
  batch_options.index = options_.index;
  batch_options.plane = plane_;  // shared read-only across all shard tasks
  batch_options.plane_store = store_;  // one interning universe per query
  batch_options.enable_jump = options_.enable_jump;

  const size_t num_groups =
      sharded_queries_.empty() ? 0 : plan_.groups.size();
  if (workers_.size() != num_groups) {
    workers_.clear();
    std::vector<const automata::Mfa*> sharded_mfas;
    sharded_mfas.reserve(sharded_queries_.size());
    for (uint32_t q : sharded_queries_) sharded_mfas.push_back(mfas_[q]);
    for (size_t g = 0; g < num_groups; ++g) {
      workers_.push_back(std::make_unique<hype::BatchHypeEvaluator>(
          tree_, sharded_mfas, batch_options));
    }
  }
  if (fallback_queries_.empty()) {
    fallback_.reset();
  } else if (fallback_ == nullptr) {
    std::vector<const automata::Mfa*> fallback_mfas;
    fallback_mfas.reserve(fallback_queries_.size());
    for (uint32_t q : fallback_queries_) fallback_mfas.push_back(mfas_[q]);
    fallback_ = std::make_unique<hype::BatchHypeEvaluator>(
        tree_, fallback_mfas, batch_options);
  }
}

std::vector<std::vector<xml::NodeId>> ShardedBatchEvaluator::EvalAll(
    xml::NodeId context) {
  return EvalAllImpl(context, nullptr);
}

std::vector<std::vector<xml::NodeId>> ShardedBatchEvaluator::EvalAll(
    xml::NodeId context, const EvalControl& control) {
  return EvalAllImpl(context, &control);
}

std::vector<std::vector<xml::NodeId>> ShardedBatchEvaluator::EvalAllImpl(
    xml::NodeId context, const EvalControl* control) {
  const size_t n = mfas_.size();
  std::vector<std::vector<xml::NodeId>> results(n);
  merged_stats_.assign(n, hype::EvalStats{});
  last_status_ = Status::OK();
  if (n == 0 || tree_.empty()) return results;

  // Local control for this run: same deadline/poll as the caller's, but
  // guaranteed to carry a token so a tripping shard can fan the failure out
  // to its siblings. The internal token is re-armed per run; a caller token
  // is left as-is (its cancellation must stay visible to the caller).
  EvalControl run_control;
  if (control != nullptr) run_control = *control;
  if (run_control.token == nullptr && run_control.enabled()) {
    internal_token_.Reset();
    run_control.token = &internal_token_;
  }
  const bool gated = run_control.enabled();
  {
    // Fail fast (and propagate nothing to workers) when the run is already
    // cancelled or past its deadline at admission.
    EvalGate entry_gate(&run_control);
    if (!entry_gate.Refresh()) {
      last_status_ = entry_gate.status();
      return results;
    }
  }

  if (plan_.context != context) {
    BuildPlan(context);
    ProbeQueries();
    workers_.clear();
    fallback_.reset();
  }
  EnsureWorkers();

  stats_.pass = hype::SharedPassStats{};
  stats_.num_units = static_cast<int>(plan_.units.size());
  stats_.num_groups = static_cast<int>(plan_.groups.size());
  stats_.num_sharded_queries = static_cast<int>(sharded_queries_.size());
  stats_.num_fallback_queries = static_cast<int>(fallback_queries_.size());

  // One task per shard group (plus one for the fallback pass); each task
  // touches only its own evaluator and output slot. The state shared across
  // threads is the immutable tree / MFAs / index / doc plane plus the
  // read-mostly per-query transition planes (concurrently readable by
  // design, see transition_plane.h).
  const size_t num_sharded = sharded_queries_.size();
  struct GroupOut {
    std::vector<std::vector<xml::NodeId>> per_query;
    std::vector<hype::EvalStats> stats;
    hype::SharedPassStats pass;
    Status status;
  };
  std::vector<GroupOut> outs(workers_.size());
  auto run_group = [&](size_t g) {
    hype::BatchHypeEvaluator& worker = *workers_[g];
    GroupOut& out = outs[g];
    out.per_query.assign(num_sharded, {});
    out.stats.assign(num_sharded, hype::EvalStats{});
    EvalGate gate(gated ? &run_control : nullptr);
    EvalGate* gp = gated ? &gate : nullptr;
    for (int u = plan_.groups[g].first; u < plan_.groups[g].second; ++u) {
      // Force a real check between units (a unit can be arbitrarily small,
      // so the countdown alone might span many of them), and give the chaos
      // suite its per-unit fault site. A trip here -- or inside the walk
      // below -- cancels the shared token, so sibling groups stop at their
      // next poll instead of finishing their own unit lists.
      if (gp != nullptr) {
        SMOQE_FAULT_HIT(FaultSite::kShardUnit,
                        [&](Status s) { gate.Trip(std::move(s)); });
        if (!gate.Refresh()) break;
      }
      std::vector<std::vector<xml::NodeId>> unit_answers =
          worker.EvalSubtree(context, plan_.units[u].root, gp);
      if (gp != nullptr && gate.tripped()) break;
      for (size_t s = 0; s < num_sharded; ++s) {
        out.per_query[s].insert(out.per_query[s].end(),
                                unit_answers[s].begin(),
                                unit_answers[s].end());
        AccumulateRun(&out.stats[s], worker.stats(s));
      }
      out.pass.nodes_walked += worker.pass_stats().nodes_walked;
      out.pass.subtrees_skipped += worker.pass_stats().subtrees_skipped;
      out.pass.positions_jumped += worker.pass_stats().positions_jumped;
    }
    out.status = gate.status();
    for (size_t s = 0; s < num_sharded; ++s) {
      out.stats[s].elements_total = worker.stats(s).elements_total;
      out.stats[s].configs_interned = worker.stats(s).configs_interned;
    }
  };
  std::vector<std::vector<xml::NodeId>> fallback_results;
  Status fallback_status;
  auto run_fallback = [&] {
    EvalGate gate(gated ? &run_control : nullptr);
    fallback_results = fallback_->EvalAll(context, gated ? &gate : nullptr);
    fallback_status = gate.status();
  };

  // Blocking on pool futures from one of the pool's own threads can
  // deadlock (the blocked worker may be the one the tasks need), so such a
  // caller runs the shards inline instead -- slower, never wrong. The
  // service always calls from its dispatcher thread and takes the pool
  // path.
  if (options_.pool != nullptr && !options_.pool->OnPoolThread()) {
    std::vector<std::future<void>> done;
    for (size_t g = 0; g < workers_.size(); ++g) {
      done.push_back(
          options_.pool->SubmitWithResult([&run_group, g] { run_group(g); }));
    }
    if (fallback_ != nullptr) {
      done.push_back(options_.pool->SubmitWithResult(run_fallback));
    }
    for (std::future<void>& d : done) d.get();
  } else {
    for (size_t g = 0; g < workers_.size(); ++g) run_group(g);
    if (fallback_ != nullptr) run_fallback();
  }

  // Any tripped task aborts the whole run (partial merges would break the
  // bit-identity contract). All tasks have joined, the evaluator's plan,
  // workers, and planes are intact, and every engine resets on its next
  // pass -- the run can simply be retried.
  if (gated) {
    last_status_ = fallback_status;
    for (const GroupOut& g : outs) {
      if (!g.status.ok()) {
        last_status_ = g.status;
        break;
      }
    }
    if (!last_status_.ok()) {
      merged_stats_.assign(n, hype::EvalStats{});
      return std::vector<std::vector<xml::NodeId>>(n);
    }
  }

  // Deterministic merge: spine answers, then every group's answers in unit
  // (document) order -- independent of which thread ran what, when.
  for (size_t s = 0; s < num_sharded; ++s) {
    const uint32_t q = sharded_queries_[s];
    std::vector<xml::NodeId>& out = results[q];
    out = spine_answers_[q];
    for (const GroupOut& g : outs) {
      out.insert(out.end(), g.per_query[s].begin(), g.per_query[s].end());
    }
    // Spine nodes and unit subtrees are pairwise disjoint, so the pieces
    // are duplicate-free; only the order needs repairing.
    if (!std::is_sorted(out.begin(), out.end())) {
      std::sort(out.begin(), out.end());
    }
    hype::EvalStats& merged = merged_stats_[q];
    merged.elements_total = tree_.CountElements();
    merged.elements_visited = spine_visits_[q];
    for (const GroupOut& g : outs) AccumulateRun(&merged, g.stats[s]);
    for (const GroupOut& g : outs) {
      merged.configs_interned += g.stats[s].configs_interned;
    }
  }
  for (size_t f = 0; f < fallback_queries_.size(); ++f) {
    const uint32_t q = fallback_queries_[f];
    results[q] = std::move(fallback_results[f]);
    merged_stats_[q] = fallback_->stats(f);
  }

  for (const GroupOut& g : outs) {
    stats_.pass.nodes_walked += g.pass.nodes_walked;
    stats_.pass.subtrees_skipped += g.pass.subtrees_skipped;
    stats_.pass.positions_jumped += g.pass.positions_jumped;
  }
  if (!sharded_queries_.empty()) {
    stats_.pass.nodes_walked += static_cast<int64_t>(plan_.spine.size());
  }
  if (fallback_ != nullptr) {
    stats_.pass.nodes_walked += fallback_->pass_stats().nodes_walked;
    stats_.pass.subtrees_skipped += fallback_->pass_stats().subtrees_skipped;
    stats_.pass.positions_jumped += fallback_->pass_stats().positions_jumped;
  }
  return results;
}

}  // namespace smoqe::exec
