#include "exec/sharded_eval.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <future>
#include <utility>

#include "common/fault_injection.h"

namespace smoqe::exec {

namespace {

// Sums the per-run traversal counters of `add` into `into` (configs_interned
// is cumulative per engine, so the merge sums it over workers instead).
void AccumulateRun(hype::EvalStats* into, const hype::EvalStats& add) {
  into->elements_visited += add.elements_visited;
  into->cans_vertices += add.cans_vertices;
  into->cans_edges += add.cans_edges;
  into->afa_state_requests += add.afa_state_requests;
}

void AccumulatePass(hype::SharedPassStats* into,
                    const hype::SharedPassStats& add) {
  into->nodes_walked += add.nodes_walked;
  into->subtrees_skipped += add.subtrees_skipped;
  into->positions_jumped += add.positions_jumped;
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
      store_owned_(options.plane_store == nullptr
                       ? std::make_unique<hype::TransitionPlaneStore>(
                             tree, options.index)
                       : nullptr) {
  // Every participant evaluator runs with exactly these options.
  if (options_.plane == nullptr) options_.plane = &plane_owned_;
  if (options_.plane_store == nullptr) {
    options_.plane_store = store_owned_.get();
  }
  probes_.reserve(mfas_.size());
  for (const automata::Mfa* mfa : mfas_) {
    probes_.push_back(options_.plane_store->For(mfa));
  }
}

ShardedBatchEvaluator::~ShardedBatchEvaluator() = default;

// Decomposes the subtree of `context` into units: starting from the element
// children, the heaviest unit is recursively replaced by its children (the
// replaced node joining the spine) until there are enough units to feed the
// pool's helpers. Units keep document order throughout. All sizing comes
// from the plane's extents -- weighing a subtree is O(1) and enumerating
// element children is a cursor walk over the preorder arrays, so building a
// plan no longer pays an O(N) weight pre-pass per context.
void ShardedBatchEvaluator::BuildPlan(xml::NodeId context) {
  plan_ = Plan{};
  plan_.context = context;

  const int pool_width =
      options_.pool != nullptr ? options_.pool->num_threads() : 1;
  const int target = options_.num_shards > 0 ? options_.num_shards
                                             : std::max(1, 2 * pool_width);

  const xml::DocPlane& plane = *options_.plane;
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
            probe.Transition(parent_cfg,
                             options_.plane->label(plan_.spine[j].pos),
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

  // The run's jobs, light to heavy: units by weight (the caller claims from
  // this end), then the fallback, heaviest by fiat -- it walks the whole
  // context subtree, so it is the first job a helper claims.
  jobs_.clear();
  const int64_t num_sharded = static_cast<int64_t>(sharded_queries_.size());
  if (num_sharded > 0) {
    for (size_t u = 0; u < plan_.units.size(); ++u) {
      jobs_.push_back(
          {static_cast<int>(u), plan_.units[u].weight * num_sharded});
    }
    std::stable_sort(jobs_.begin(), jobs_.end(),
                     [](const Job& a, const Job& b) {
                       return a.weight < b.weight;
                     });
  }
  if (!fallback_queries_.empty()) {
    const int64_t elements = options_.plane->extent(plan_.spine[0].pos) + 1;
    jobs_.push_back(
        {-1, elements * static_cast<int64_t>(fallback_queries_.size())});
  }
}

// Ensures `count` participant evaluators over the shardable queries (the
// caller's first, helpers' at the fan-outs that need them) and the fallback
// evaluator when some query needs it.
void ShardedBatchEvaluator::EnsureWorkers(size_t count) {
  auto subset = [&](const std::vector<uint32_t>& queries) {
    std::vector<const automata::Mfa*> out;
    out.reserve(queries.size());
    for (uint32_t q : queries) out.push_back(mfas_[q]);
    return out;
  };
  while (!sharded_queries_.empty() && workers_.size() < count) {
    workers_.push_back(std::make_unique<hype::BatchHypeEvaluator>(
        tree_, subset(sharded_queries_), options_));
  }
  if (!fallback_queries_.empty() && fallback_ == nullptr) {
    fallback_ = std::make_unique<hype::BatchHypeEvaluator>(
        tree_, subset(fallback_queries_), options_);
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
  // guaranteed to carry a token so a tripping participant can fan the
  // failure out to the others. The internal token is re-armed per run; a
  // caller token is left as-is (its cancellation must stay visible to the
  // caller).
  EvalControl run_control;
  if (control != nullptr) run_control = *control;
  if (run_control.token == nullptr && run_control.enabled()) {
    internal_token_.Reset();
    run_control.token = &internal_token_;
  }
  const bool gated = run_control.enabled();
  {
    // Fail fast (and propagate nothing to participants) when the run is
    // already cancelled or past its deadline at admission.
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
  EnsureWorkers(1);

  stats_.pass = hype::SharedPassStats{};
  stats_.num_units = static_cast<int>(plan_.units.size());
  stats_.num_groups = jobs_.empty() ? 0 : 1;
  stats_.num_sharded_queries = static_cast<int>(sharded_queries_.size());
  stats_.num_fallback_queries = static_cast<int>(fallback_queries_.size());

  // Participant p runs on workers_[p] and writes only its own slot, the
  // answer slots of the units it claims and, if it claims the fallback, the
  // fallback results. The state shared across threads is the immutable
  // tree / MFAs / index / doc plane plus the read-mostly per-query
  // transition planes (concurrently readable by design, see
  // transition_plane.h).
  const size_t num_sharded = sharded_queries_.size();
  struct Participant {
    EvalGate gate;
    std::vector<hype::EvalStats> stats;  // per sharded query, over its units
    hype::SharedPassStats pass;
  };
  const int pool_width =
      options_.pool != nullptr ? options_.pool->num_threads() : 0;
  std::vector<Participant> parts;
  parts.reserve(1 + static_cast<size_t>(pool_width));  // no reallocation
  auto add_participant = [&] {
    parts.push_back({EvalGate(gated ? &run_control : nullptr),
                     std::vector<hype::EvalStats>(num_sharded),
                     hype::SharedPassStats{}});
  };
  add_participant();
  std::vector<std::vector<std::vector<xml::NodeId>>> unit_answers(
      plan_.units.size());
  std::vector<std::vector<xml::NodeId>> fallback_results;

  // Runs one job as participant `p`; returns the engine-node visits made.
  auto run_job = [&](size_t p, const Job& job) -> int64_t {
    Participant& part = parts[p];
    EvalGate* gp = gated ? &part.gate : nullptr;
    int64_t visits = 0;
    // The chaos suite's per-job fault site. A trip here -- or inside the
    // walk below -- cancels the shared token, so the other participants
    // stop at their next poll instead of finishing their jobs.
    if (gp != nullptr) {
      SMOQE_FAULT_HIT(FaultSite::kShardUnit,
                      [&](Status s) { part.gate.Trip(std::move(s)); });
    }
    if (job.unit < 0) {
      // The fallback pass refreshes the gate on entry.
      fallback_results = fallback_->EvalAll(context, gp);
      AccumulatePass(&part.pass, fallback_->pass_stats());
      for (size_t f = 0; f < fallback_queries_.size(); ++f) {
        visits += fallback_->stats(f).elements_visited;
      }
      return visits;
    }
    // Force a real check between units: a unit can be arbitrarily small,
    // so the countdown alone might span many of them.
    if (gp != nullptr && !part.gate.Refresh()) return 0;
    hype::BatchHypeEvaluator& worker = *workers_[p];
    unit_answers[job.unit] =
        worker.EvalSubtree(context, plan_.units[job.unit].root, gp);
    AccumulatePass(&part.pass, worker.pass_stats());
    for (size_t s = 0; s < num_sharded; ++s) {
      AccumulateRun(&part.stats[s], worker.stats(s));
      visits += worker.stats(s).elements_visited;
    }
    return visits;
  };

  // Inline phase (see the design note): the caller claims jobs from the
  // light end while the visits it predicts for the unclaimed weight stay
  // within budget. A caller on one of the pool's own threads never fans
  // out: blocking it on pool futures could deadlock the pool (the blocked
  // worker may be the one the helpers need) -- slower, never wrong.
  const bool can_fan_out =
      options_.pool != nullptr && !options_.pool->OnPoolThread();
  int64_t claimed = 0;
  int64_t unclaimed = 0;
  int64_t visits = 0;
  for (const Job& job : jobs_) unclaimed += job.weight;
  size_t next = 0;
  while (next < jobs_.size() && !parts[0].gate.tripped()) {
    if (can_fan_out) {
      // Before any measurement, the next job's weight bounds its visits (an
      // engine visits an element at most once), so even the first inline
      // job costs at most the budget.
      const double predicted =
          claimed > 0 ? static_cast<double>(visits) *
                            static_cast<double>(unclaimed) /
                            static_cast<double>(claimed)
                      : static_cast<double>(jobs_[next].weight);
      if (predicted > static_cast<double>(kFanOutBudget)) break;
    }
    const Job& job = jobs_[next++];
    visits += run_job(0, job);
    claimed += job.weight;
    unclaimed -= job.weight;
  }

  // Hand-off: helpers claim every remaining job from the heavy end while
  // the caller blocks -- claiming alongside them would keep the caller's
  // CPU busy under the helpers it just woke.
  if (next < jobs_.size() && !parts[0].gate.tripped()) {
    const size_t remaining = jobs_.size() - next;
    const size_t helpers =
        std::min(static_cast<size_t>(pool_width), remaining);
    EnsureWorkers(1 + helpers);
    for (size_t p = 1; p <= helpers; ++p) add_participant();
    std::atomic<size_t> taken{0};
    std::vector<std::future<void>> done;
    for (size_t p = 1; p <= helpers; ++p) {
      done.push_back(options_.pool->SubmitWithResult([&, p] {
        for (size_t k = taken.fetch_add(1);
             k < remaining && !parts[p].gate.tripped();
             k = taken.fetch_add(1)) {
          run_job(p, jobs_[jobs_.size() - 1 - k]);
        }
      }));
    }
    for (std::future<void>& d : done) d.get();
    stats_.num_groups = static_cast<int>(1 + helpers);
  }

  for (const Participant& part : parts) {
    AccumulatePass(&stats_.pass, part.pass);
  }
  // Any tripped participant aborts the whole run (partial merges would
  // break the bit-identity contract). All participants have joined, the
  // evaluator's plan, workers, and planes are intact, and every engine
  // resets on its next pass -- the run can simply be retried.
  for (const Participant& part : parts) {
    if (part.gate.tripped()) {
      last_status_ = part.gate.status();
      return std::vector<std::vector<xml::NodeId>>(n);
    }
  }

  // Deterministic merge: spine answers, then every unit's answers in unit
  // (document) order -- independent of which thread ran what, when.
  for (size_t s = 0; s < num_sharded; ++s) {
    const uint32_t q = sharded_queries_[s];
    std::vector<xml::NodeId>& out = results[q];
    out = spine_answers_[q];
    for (const auto& unit : unit_answers) {
      out.insert(out.end(), unit[s].begin(), unit[s].end());
    }
    // Spine nodes and unit subtrees are pairwise disjoint, so the pieces
    // are duplicate-free; only the order needs repairing.
    if (!std::is_sorted(out.begin(), out.end())) {
      std::sort(out.begin(), out.end());
    }
    hype::EvalStats& merged = merged_stats_[q];
    merged.elements_total = tree_.CountElements();
    merged.elements_visited = spine_visits_[q];
    for (const Participant& part : parts) AccumulateRun(&merged, part.stats[s]);
    // Engine counters are cumulative, so every worker's attribution counts,
    // whether or not it ran this time.
    for (const auto& worker : workers_) {
      merged.configs_interned += worker->stats(s).configs_interned;
    }
  }
  for (size_t f = 0; f < fallback_queries_.size(); ++f) {
    const uint32_t q = fallback_queries_[f];
    results[q] = std::move(fallback_results[f]);
    merged_stats_[q] = fallback_->stats(f);
  }
  if (!sharded_queries_.empty()) {
    stats_.pass.nodes_walked += static_cast<int64_t>(plan_.spine.size());
  }
  return results;
}

}  // namespace smoqe::exec
