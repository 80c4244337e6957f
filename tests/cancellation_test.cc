// common/cancellation.h and its plumbing through every evaluation driver:
// CancelToken/Deadline/EvalGate unit behavior, abort propagation in
// HypeEvaluator, BatchHypeEvaluator, ShardedBatchEvaluator and
// StandingQueryEvaluator::Advance (including a sharded run that has fanned
// out to pool helpers), engine reusability after an abort, and the
// documented cancellation-latency bound (at most one checkpoint interval of
// extra node entries before the traversal stops).

#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "automata/mfa.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "exec/sharded_eval.h"
#include "exec/standing_query.h"
#include "gen/hospital_generator.h"
#include "hype/batch_hype.h"
#include "hype/hype.h"
#include "xml/plane_epoch.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"
#include "xpath/parser.h"

namespace smoqe {
namespace {

using NodeVec = std::vector<xml::NodeId>;

xml::Tree Hospital(int patients, uint64_t seed) {
  gen::HospitalParams params;
  params.patients = patients;
  params.seed = seed;
  params.heart_disease_prob = 0.3;
  return gen::GenerateHospital(params);
}

automata::Mfa Compile(const std::string& query) {
  auto parsed = xpath::ParseQuery(query);
  EXPECT_TRUE(parsed.ok()) << query;
  return automata::CompileQuery(parsed.value());
}

std::vector<std::string> Workload() {
  return {
      "department/patient/pname",
      "//diagnosis",
      "department/patient[visit/treatment/medication]",
      "department/patient[not(visit/treatment/test)]",
  };
}

// ---------------------------------------------------------------- units --

TEST(CancelTokenTest, FirstCancelWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kOk);
  EXPECT_TRUE(token.Cancel(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kDeadlineExceeded);
  // A later Cancel with a different code is a no-op.
  EXPECT_FALSE(token.Cancel(StatusCode::kCancelled));
  EXPECT_EQ(token.reason(), StatusCode::kDeadlineExceeded);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Cancel());
  EXPECT_EQ(token.reason(), StatusCode::kCancelled);
}

TEST(DeadlineTest, NeverAndAfter) {
  Deadline never;
  EXPECT_FALSE(never.has_deadline());
  EXPECT_FALSE(never.expired());
  Deadline past = Deadline::After(std::chrono::microseconds(0));
  EXPECT_TRUE(past.has_deadline());
  EXPECT_TRUE(past.expired());
  Deadline future = Deadline::After(std::chrono::hours(1));
  EXPECT_TRUE(future.has_deadline());
  EXPECT_FALSE(future.expired());
}

TEST(EvalControlTest, EnabledOnlyWhenSomethingToWatch) {
  EvalControl control;
  EXPECT_FALSE(control.enabled());
  CancelToken token;
  control.token = &token;
  EXPECT_TRUE(control.enabled());
  control.token = nullptr;
  control.deadline = Deadline::After(std::chrono::hours(1));
  EXPECT_TRUE(control.enabled());
  control.deadline = Deadline::Never();
  control.extra_poll = [] { return StatusCode::kOk; };
  EXPECT_TRUE(control.enabled());
}

TEST(EvalGateTest, DisarmedGateNeverTrips) {
  EvalGate gate(nullptr);
  for (int i = 0; i < 1 << 20; ++i) ASSERT_TRUE(gate.Poll());
  EXPECT_FALSE(gate.tripped());
  EXPECT_TRUE(gate.status().ok());
}

TEST(EvalGateTest, ObservesCancellationAtCheckpointBoundary) {
  CancelToken token;
  EvalControl control;
  control.token = &token;
  control.checkpoint_interval = 4;
  EvalGate gate(&control);
  token.Cancel();
  // The countdown covers the first interval; the refresh at its end
  // observes the token.
  EXPECT_TRUE(gate.Poll());
  EXPECT_TRUE(gate.Poll());
  EXPECT_TRUE(gate.Poll());
  EXPECT_FALSE(gate.Poll());
  EXPECT_TRUE(gate.tripped());
  EXPECT_EQ(gate.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(gate.Poll());  // latched
}

TEST(EvalGateTest, TripCancelsTheSharedTokenForSiblings) {
  CancelToken token;
  EvalControl control;
  control.token = &token;
  EvalGate first(&control);
  EvalGate sibling(&control);
  first.Trip(Status::Unavailable("injected shard fault"));
  EXPECT_TRUE(first.tripped());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kUnavailable);
  // The sibling observes the failure at its next refresh, with the code the
  // first failure carried.
  EXPECT_FALSE(sibling.Refresh());
  EXPECT_EQ(sibling.status().code(), StatusCode::kUnavailable);
}

TEST(EvalGateTest, DeadlineTripsWithDeadlineExceeded) {
  EvalControl control;
  control.deadline = Deadline::After(std::chrono::microseconds(0));
  EvalGate gate(&control);
  EXPECT_FALSE(gate.Refresh());
  EXPECT_EQ(gate.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EvalGateTest, ExtraPollAborts) {
  int calls = 0;
  EvalControl control;
  control.checkpoint_interval = 2;
  control.extra_poll = [&calls] {
    return ++calls < 3 ? StatusCode::kOk : StatusCode::kResourceExhausted;
  };
  EvalGate gate(&control);
  int polls = 0;
  while (gate.Poll()) ++polls;
  EXPECT_EQ(gate.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(polls, 2 * 3 - 1);  // three refreshes, two intervals survived
}

// -------------------------------------------------------------- drivers --

TEST(CancellationTest, SoloEvalCancelledBeforeStart) {
  xml::Tree tree = Hospital(20, 7);
  automata::Mfa mfa = Compile("//diagnosis");
  hype::HypeEvaluator eval(tree, mfa);
  const NodeVec expected = eval.Eval(tree.root());
  ASSERT_FALSE(expected.empty());

  CancelToken token;
  token.Cancel();
  EvalControl control;
  control.token = &token;
  auto aborted = eval.Eval(tree.root(), control);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);

  // The evaluator is reusable after an abort: clear the token and both the
  // controlled and the plain path produce the full answer again.
  token.Reset();
  auto retried = eval.Eval(tree.root(), control);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), expected);
  EXPECT_EQ(eval.Eval(tree.root()), expected);
}

TEST(CancellationTest, SoloEvalDeadlineExceeded) {
  xml::Tree tree = Hospital(20, 11);
  automata::Mfa mfa = Compile("//diagnosis");
  hype::HypeEvaluator eval(tree, mfa);
  EvalControl control;
  control.deadline = Deadline::After(std::chrono::microseconds(0));
  auto aborted = eval.Eval(tree.root(), control);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, DisabledControlMatchesPlainEval) {
  xml::Tree tree = Hospital(15, 13);
  automata::Mfa mfa = Compile("department/patient[visit]/pname");
  hype::HypeEvaluator eval(tree, mfa);
  auto controlled = eval.Eval(tree.root(), EvalControl{});
  ASSERT_TRUE(controlled.ok());
  EXPECT_EQ(controlled.value(), eval.Eval(tree.root()));
}

// The latency contract: a traversal observes cancellation after at most
// `checkpoint_interval` additional node entries. The extra poll passes the
// entry refresh once and demands cancellation from then on, so the pass is
// cut off at the FIRST in-loop checkpoint -- elements_visited must stay
// within one interval (the driver may also spend polls on pops, which only
// tightens the bound).
TEST(CancellationTest, CancellationLatencyBoundedByCheckpointInterval) {
  xml::Tree tree = Hospital(200, 17);
  automata::Mfa mfa = Compile("//diagnosis");
  hype::EvalOptions options;
  options.enable_jump = false;  // one poll per element entry, worst case
  hype::HypeEvaluator eval(tree, mfa, options);
  const int64_t total = tree.CountElements();
  ASSERT_GT(total, 1000);

  constexpr int32_t kInterval = 64;
  int calls = 0;
  EvalControl control;
  control.checkpoint_interval = kInterval;
  control.extra_poll = [&calls] {
    return ++calls <= 1 ? StatusCode::kOk : StatusCode::kCancelled;
  };
  auto aborted = eval.Eval(tree.root(), control);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  EXPECT_LE(eval.stats().elements_visited, kInterval);
  EXPECT_LT(eval.stats().elements_visited, total / 4);
  // The driver counts walked nodes up to the abort, frameless engines
  // included, so this bounds the pass itself (the context node plus one
  // interval of entries).
  EXPECT_LE(eval.pass_stats().nodes_walked, kInterval + 1);
}

TEST(CancellationTest, BatchEvalAbortsAndStaysReusable) {
  xml::Tree tree = Hospital(20, 19);
  std::vector<automata::Mfa> mfas;
  for (const std::string& q : Workload()) mfas.push_back(Compile(q));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  hype::BatchHypeEvaluator eval(tree, ptrs);
  const std::vector<NodeVec> expected = eval.EvalAll(tree.root());

  CancelToken token;
  token.Cancel();
  EvalControl control;
  control.token = &token;
  EvalGate gate(&control);
  std::vector<NodeVec> aborted = eval.EvalAll(tree.root(), &gate);
  EXPECT_TRUE(gate.tripped());
  EXPECT_EQ(gate.status().code(), StatusCode::kCancelled);
  ASSERT_EQ(aborted.size(), ptrs.size());
  for (const NodeVec& a : aborted) EXPECT_TRUE(a.empty());

  EXPECT_EQ(eval.EvalAll(tree.root()), expected);
}

TEST(CancellationTest, ShardedEvalCancelsAndStaysReusable) {
  xml::Tree tree = Hospital(30, 23);
  std::vector<automata::Mfa> mfas;
  for (const std::string& q : Workload()) mfas.push_back(Compile(q));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  common::ThreadPool pool(4);
  exec::ShardedOptions options;
  options.pool = &pool;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  const std::vector<NodeVec> expected = eval.EvalAll(tree.root());
  EXPECT_TRUE(eval.last_status().ok());

  CancelToken token;
  token.Cancel();
  EvalControl control;
  control.token = &token;
  std::vector<NodeVec> aborted = eval.EvalAll(tree.root(), control);
  EXPECT_EQ(eval.last_status().code(), StatusCode::kCancelled);
  ASSERT_EQ(aborted.size(), ptrs.size());
  for (const NodeVec& a : aborted) EXPECT_TRUE(a.empty());

  // Reusable and warm after the abort -- both the controlled path (token
  // cleared) and the plain path reproduce the full answers.
  token.Reset();
  EXPECT_EQ(eval.EvalAll(tree.root(), control), expected);
  EXPECT_TRUE(eval.last_status().ok());
  EXPECT_EQ(eval.EvalAll(tree.root()), expected);
  EXPECT_TRUE(eval.last_status().ok());
}

TEST(CancellationTest, ShardedEvalDeadlineReportsDeadlineExceeded) {
  xml::Tree tree = Hospital(30, 29);
  std::vector<automata::Mfa> mfas;
  for (const std::string& q : Workload()) mfas.push_back(Compile(q));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  common::ThreadPool pool(4);
  exec::ShardedOptions options;
  options.pool = &pool;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  EvalControl control;
  control.deadline = Deadline::After(std::chrono::microseconds(0));
  control.checkpoint_interval = 16;
  std::vector<NodeVec> aborted = eval.EvalAll(tree.root(), control);
  EXPECT_EQ(eval.last_status().code(), StatusCode::kDeadlineExceeded);
  for (const NodeVec& a : aborted) EXPECT_TRUE(a.empty());
}

TEST(CancellationTest, StandingQueryAdvanceAbortsAtPreviousEpochAndRetries) {
  xml::Tree tree = Hospital(15, 31);
  std::vector<automata::Mfa> mfas;
  for (const std::string& q : Workload()) mfas.push_back(Compile(q));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  xml::EpochPublisher publisher(tree);
  exec::StandingQueryEvaluator standing(publisher.Snapshot(), ptrs);
  std::vector<NodeVec> base_answers;
  for (size_t q = 0; q < ptrs.size(); ++q) {
    base_answers.push_back(standing.answers(q));
  }

  // One relabel inside the document: forces a (spliced or full) re-eval.
  xml::TreeDelta delta(publisher.version());
  delta.AddRelabel(tree.first_child(tree.root()), "patient");
  ASSERT_TRUE(publisher.Apply(delta).ok());
  const xml::PlaneEpoch next = publisher.Snapshot();

  CancelToken token;
  token.Cancel();
  EvalControl control;
  control.token = &token;
  Status aborted = standing.Advance(next, delta, nullptr, control);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.code(), StatusCode::kCancelled);
  // Still at the previous epoch with the previous answers: staged commit.
  EXPECT_EQ(standing.version(), 0u);
  for (size_t q = 0; q < ptrs.size(); ++q) {
    EXPECT_EQ(standing.answers(q), base_answers[q]);
  }

  // The retry (no control) succeeds and matches a cold evaluation on the
  // new epoch.
  ASSERT_TRUE(standing.Advance(next, delta).ok());
  EXPECT_EQ(standing.version(), next.version);
  hype::BatchHypeEvaluator cold(*next.tree, ptrs);
  std::vector<NodeVec> expected = cold.EvalAll(next.tree->root());
  for (size_t q = 0; q < ptrs.size(); ++q) {
    EXPECT_EQ(standing.answers(q), expected[q]);
  }
}

// A deadline that expires mid-run (not before the entry refresh) on a
// threaded sharded pass: siblings observe the first failure through the
// shared token and the whole call lands within the terminal-status set.
TEST(CancellationTest, MidRunDeadlineOnThreadedPass) {
  xml::Tree tree = Hospital(120, 37);
  std::vector<automata::Mfa> mfas;
  for (const std::string& q : Workload()) mfas.push_back(Compile(q));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  common::ThreadPool pool(4);
  exec::ShardedOptions options;
  options.pool = &pool;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  const std::vector<NodeVec> expected = eval.EvalAll(tree.root());

  EvalControl control;
  control.deadline = Deadline::After(std::chrono::microseconds(200));
  control.checkpoint_interval = 32;
  std::vector<NodeVec> results = eval.EvalAll(tree.root(), control);
  if (eval.last_status().ok()) {
    EXPECT_EQ(results, expected);  // fast machine: finished under deadline
  } else {
    EXPECT_EQ(eval.last_status().code(), StatusCode::kDeadlineExceeded);
    for (const NodeVec& a : results) EXPECT_TRUE(a.empty());
  }
}

// An abort on the FAN-OUT path (the small suites above stay inline): a
// cancel lands after the caller has handed its batch to pool helpers, one
// participant trips, and every other participant stops within one
// checkpoint interval -- so the aborted run walks at most one interval per
// granted poll, far short of the full pass. The call returns all-empty
// answers with the status, and the same evaluator's next run is
// bit-identical to solo HyPE.
TEST(CancellationTest, FanOutAbortStopsEveryParticipantAndStaysReusable) {
  xml::Tree tree = Hospital(400, 41);
  std::vector<automata::Mfa> mfas;
  for (const std::string& q : Workload()) mfas.push_back(Compile(q));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  std::vector<NodeVec> solo;
  std::vector<int64_t> solo_visited;
  for (const automata::Mfa& m : mfas) {
    hype::HypeEvaluator eval(tree, m);
    solo.push_back(eval.Eval(tree.root()));
    solo_visited.push_back(eval.stats().elements_visited);
  }

  common::ThreadPool pool(4);
  exec::ShardedOptions options;
  options.pool = &pool;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  ASSERT_EQ(eval.EvalAll(tree.root()), solo);
  const int participants = eval.stats().num_groups;
  ASSERT_GT(participants, 1) << "the batch must fan out";
  const int64_t full_walk = eval.stats().pass.nodes_walked;

  // The first kGranted refreshes pass -- enough for the caller's inline
  // unit (the run's entry check, the unit check, the unit's entry check) --
  // then the poll demands cancellation. Every participant's gate starts
  // with one interval of credit and each granted refresh adds one more, so
  // the walk is bounded by (kGranted + participants) intervals (+1 per
  // interval for a unit's unpolled top entry).
  constexpr int32_t kInterval = 32;
  constexpr int kGranted = 12;
  std::atomic<int> polls{0};
  EvalControl control;
  control.checkpoint_interval = kInterval;
  control.extra_poll = [&polls] {
    return polls.fetch_add(1) < kGranted ? StatusCode::kOk
                                         : StatusCode::kCancelled;
  };
  std::vector<NodeVec> aborted = eval.EvalAll(tree.root(), control);
  EXPECT_EQ(eval.last_status().code(), StatusCode::kCancelled);
  EXPECT_EQ(eval.stats().num_groups, participants) << "abort after fan-out";
  ASSERT_EQ(aborted.size(), ptrs.size());
  for (const NodeVec& a : aborted) EXPECT_TRUE(a.empty());
  const int64_t bound = int64_t{kGranted + participants} * (kInterval + 1);
  EXPECT_LE(eval.stats().pass.nodes_walked, bound);
  EXPECT_LT(bound * 4, full_walk);

  std::vector<NodeVec> again = eval.EvalAll(tree.root());
  EXPECT_TRUE(eval.last_status().ok());
  EXPECT_EQ(again, solo);
  for (size_t q = 0; q < mfas.size(); ++q) {
    EXPECT_EQ(eval.merged_stats(q).elements_visited, solo_visited[q]) << q;
  }

#ifdef SMOQE_FAULT_INJECTION
  // The same on an injected unit fault: the second unit hit is the first
  // unit a helper claims (the caller's inline unit took the first).
  auto& fi = FaultInjector::Global();
  fi.Arm(41);
  FaultPlan plan;
  plan.kind = FaultKind::kTransientError;
  plan.window_first = 1;
  plan.window_count = 1;
  fi.SetPlan(FaultSite::kShardUnit, plan);
  EvalControl faulted;
  faulted.checkpoint_interval = kInterval;
  faulted.deadline = Deadline::After(std::chrono::hours(1));  // gates armed
  aborted = eval.EvalAll(tree.root(), faulted);
  fi.Disarm();
  EXPECT_EQ(eval.last_status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(eval.stats().num_groups, participants);
  for (const NodeVec& a : aborted) EXPECT_TRUE(a.empty());
  EXPECT_EQ(eval.EvalAll(tree.root()), solo);
  EXPECT_TRUE(eval.last_status().ok());
#endif
}

}  // namespace
}  // namespace smoqe
