// The randomized chaos suite: seeded fault injection at every site while
// concurrent clients hammer the QueryService (90% reads) and a writer
// drives an EpochPublisher + StandingQueryEvaluator through deltas (10%
// writes). Invariants, per round and across all rounds:
//
//   - no crash, no deadlock, TSan-clean (the `chaos`/`concurrency` labels
//     run this under the sanitizer CI jobs);
//   - every submitted future resolves with exactly one terminal status out
//     of {kOk, kDeadlineExceeded, kCancelled, kResourceExhausted,
//     kUnavailable};
//   - every kOk answer is bit-identical to a cold solo evaluation;
//   - a failed EpochPublisher::Apply never publishes a torn snapshot: the
//     version is unchanged, the tree/plane pair stays consistent, and the
//     final document equals the clean replay of exactly the successful
//     deltas;
//   - the service's counters account every query exactly once.
//
// Rounds reproduce from their logged seed: injection decisions are a pure
// function of (seed, site, per-site hit counter).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "automata/mfa.h"
#include "common/fault_injection.h"
#include "exec/query_service.h"
#include "exec/standing_query.h"
#include "gen/hospital_generator.h"
#include "hype/batch_hype.h"
#include "hype/hype.h"
#include "xml/plane_epoch.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace smoqe {
namespace {

using exec::QueryService;
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
      "department/patient[visit]/pname",
      "//diagnosis",
      "//patient[visit/treatment/medication]",
      "department/patient[not(visit/treatment/test)]",
      "department/*/visit",
      "//doctor/specialty",
      "department/patient/visit/treatment/(medication | test)/type",
  };
}

// ------------------------------------------------ injector determinism --

#ifdef SMOQE_FAULT_INJECTION

TEST(FaultInjectorTest, DecisionsAreAPureFunctionOfSeedSiteAndHit) {
  auto& fi = FaultInjector::Global();
  auto pattern = [&](uint64_t seed) {
    fi.Arm(seed);
    fi.SetPlan(FaultSite::kShardUnit,
               {FaultKind::kTransientError, /*one_in=*/3});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!fi.Hit(FaultSite::kShardUnit).ok());
    }
    fi.Disarm();
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  EXPECT_EQ(a, pattern(42));                           // reproducible
  EXPECT_NE(a, pattern(43));                           // seed-sensitive
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);  // actually fires
  EXPECT_LT(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultInjectorTest, KindsMapToTheDocumentedCodes) {
  auto& fi = FaultInjector::Global();
  fi.Arm(7);
  fi.SetPlan(FaultSite::kShardUnit, {FaultKind::kTransientError, 1});
  fi.SetPlan(FaultSite::kServiceAdmit, {FaultKind::kAllocFailure, 1});
  EXPECT_EQ(fi.Hit(FaultSite::kShardUnit).code(), StatusCode::kUnavailable);
  EXPECT_EQ(fi.Hit(FaultSite::kServiceAdmit).code(),
            StatusCode::kResourceExhausted);
  // An unplanned site never fires (and its hit is not even counted).
  EXPECT_TRUE(fi.Hit(FaultSite::kEpochApply).ok());
  EXPECT_EQ(fi.fired(FaultSite::kEpochApply), 0);
  fi.Disarm();
  // Disarmed, the macros skip Hit entirely; a direct call still reports the
  // plan but the chaos workload below never takes this path.
  EXPECT_FALSE(FaultInjector::armed());
}

#endif  // SMOQE_FAULT_INJECTION

// --------------------------------------------------------- chaos rounds --

struct RoundTally {
  int64_t ok = 0;
  int64_t deadline = 0;
  int64_t cancelled = 0;
  int64_t shed = 0;
  int64_t unavailable = 0;
  int64_t bad_code = 0;
  int64_t wrong_answer = 0;
};

TEST(ChaosTest, SeededFaultStormPreservesEveryInvariant) {
#ifndef SMOQE_FAULT_INJECTION
  GTEST_SKIP() << "built with SMOQE_FAULT_INJECTION=OFF; no sites compiled in";
#else
  constexpr int kRounds = 8;
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 27;  // + 12 writes ~= a 90/10 mix
  constexpr int kWrites = 12;

  auto& fi = FaultInjector::Global();
  RoundTally total;
  int64_t apply_failures_total = 0;

  for (int round = 0; round < kRounds; ++round) {
    const uint64_t seed = 0xC0FFEE00ULL + static_cast<uint64_t>(round);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));

    xml::Tree tree = Hospital(12, seed);
    const std::vector<std::string> queries = Workload();
    // Oracle answers computed BEFORE arming: injection must never be able
    // to perturb the reference.
    std::map<std::string, NodeVec> oracle;
    for (const std::string& q : queries) {
      automata::Mfa mfa = Compile(q);
      hype::HypeEvaluator solo(tree, mfa);
      oracle[q] = solo.Eval(tree.root());
    }
    std::vector<automata::Mfa> standing_mfas;
    standing_mfas.push_back(Compile("//diagnosis"));
    standing_mfas.push_back(Compile("department/patient/pname"));
    std::vector<const automata::Mfa*> standing_ptrs;
    for (const automata::Mfa& m : standing_mfas) standing_ptrs.push_back(&m);

    fi.Arm(seed);
    fi.SetPlan(FaultSite::kShardUnit,
               {FaultKind::kTransientError, /*one_in=*/5});
    fi.SetPlan(FaultSite::kEpochApply,
               {FaultKind::kTransientError, /*one_in=*/2});
    fi.SetPlan(FaultSite::kPlaneIntern,
               {FaultKind::kDelay, /*one_in=*/64,
                std::chrono::microseconds(20)});
    fi.SetPlan(FaultSite::kServiceAdmit,
               {FaultKind::kAllocFailure, /*one_in=*/6});
    fi.SetPlan(FaultSite::kServiceDispatch,
               {FaultKind::kDelay, /*one_in=*/3,
                std::chrono::microseconds(200)});

    exec::QueryServiceOptions options;
    options.num_threads = 3;
    options.max_batch = 8;
    options.max_queue = 256;
    options.max_queue_age = std::chrono::milliseconds(50);
    options.checkpoint_interval = 64;
    QueryService service(tree, options);

    RoundTally tally;
    std::mutex tally_mu;
    auto account = [&](const std::string& text,
                       const QueryService::Answer& answer) {
      std::lock_guard<std::mutex> lock(tally_mu);
      if (answer.ok()) {
        ++tally.ok;
        if (answer.value() != oracle[text]) ++tally.wrong_answer;
        return;
      }
      switch (answer.status().code()) {
        case StatusCode::kDeadlineExceeded: ++tally.deadline; break;
        case StatusCode::kCancelled: ++tally.cancelled; break;
        case StatusCode::kResourceExhausted: ++tally.shed; break;
        case StatusCode::kUnavailable: ++tally.unavailable; break;
        default: ++tally.bad_code; break;
      }
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937_64 rng(seed * 977 + static_cast<uint64_t>(c));
        // Client-owned cancel tokens; a deque keeps addresses stable until
        // the matching future has resolved.
        std::deque<CancelToken> tokens;
        std::vector<std::pair<std::string,
                              std::future<QueryService::Answer>>> inflight;
        for (int i = 0; i < kQueriesPerClient; ++i) {
          const std::string& q = queries[rng() % queries.size()];
          exec::SubmitOptions submit;
          const uint64_t mode = rng() % 10;
          if (mode < 2) {
            // Generous deadline: gates the evaluation (so shard faults can
            // surface) but virtually never expires.
            submit.deadline = Deadline::After(std::chrono::seconds(5));
          } else if (mode < 4) {
            // Tight deadline: may expire in the queue or mid-evaluation.
            submit.deadline = Deadline::After(
                std::chrono::microseconds(rng() % 400));
          } else if (mode < 6) {
            tokens.emplace_back();
            submit.cancel = &tokens.back();
          }  // else: plain ungated submission
          auto future = service.Submit(q, submit);
          if (submit.cancel != nullptr && rng() % 2 == 0) {
            submit.cancel->Cancel();  // sometimes cancel immediately
          }
          inflight.emplace_back(q, std::move(future));
          if (inflight.size() >= 6) {
            // Cancel the stragglers' tokens mid-flight, then resolve all.
            for (CancelToken& t : tokens) t.Cancel();
            for (auto& [text, fut] : inflight) account(text, fut.get());
            inflight.clear();
            tokens.clear();
          }
        }
        for (CancelToken& t : tokens) t.Cancel();
        for (auto& [text, fut] : inflight) account(text, fut.get());
      });
    }

    // The single writer: publishes deltas (retrying injected Apply
    // failures) and keeps a standing evaluator current across the epochs.
    int64_t apply_failures = 0;
    std::string writer_error;
    std::thread writer([&] {
      std::mt19937_64 rng(seed * 31337);
      static const char* const kLabels[] = {"patient", "visit", "test",
                                            "medication", "treatment"};
      xml::EpochPublisher publisher(tree);
      exec::StandingQueryEvaluator standing(publisher.Snapshot(),
                                            standing_ptrs);
      xml::Tree replay = tree;  // clean replay of the successful deltas
      for (int w = 0; w < kWrites; ++w) {
        // Relabel a stable node within the existing label universe.
        const xml::PlaneEpoch before = publisher.Snapshot();
        xml::NodeId victim = before.tree->first_child(before.tree->root());
        for (uint64_t hops = rng() % 3; hops > 0 && victim != xml::kNullNode;
             --hops) {
          xml::NodeId down = before.tree->first_child(victim);
          if (down == xml::kNullNode || !before.tree->is_element(down)) break;
          victim = down;
        }
        const char* label = kLabels[rng() % 5];
        xml::TreeDelta delta(publisher.version());
        delta.AddRelabel(victim, label);
        Status applied = Status::OK();
        for (int attempt = 0; attempt < 64; ++attempt) {
          applied = publisher.Apply(delta);
          if (applied.ok()) break;
          ++apply_failures;
          // Torn-snapshot invariant: the failed Apply must not have
          // published anything -- version unchanged, tree/plane consistent.
          const xml::PlaneEpoch after = publisher.Snapshot();
          if (applied.code() != StatusCode::kUnavailable ||
              after.version != before.version ||
              after.plane->size() != after.tree->CountElements()) {
            writer_error = "torn snapshot after failed Apply: " +
                           applied.ToString();
            return;
          }
        }
        if (!applied.ok()) {
          writer_error = "Apply never succeeded: " + applied.ToString();
          return;
        }
        xml::TreeDelta replay_step(0);
        replay_step.AddRelabel(victim, label);
        if (!replay_step.ApplyTo(&replay).ok()) {
          writer_error = "replay step failed";
          return;
        }

        // Advance the standing answers, sometimes under a tight deadline;
        // an abort must leave the evaluator retryable at the old epoch.
        const xml::PlaneEpoch next = publisher.Snapshot();
        EvalControl control;
        if (rng() % 3 == 0) {
          control.deadline = Deadline::After(std::chrono::microseconds(50));
          control.checkpoint_interval = 32;
        }
        Status advanced = standing.Advance(next, delta, nullptr, control);
        if (!advanced.ok()) {
          if (advanced.code() != StatusCode::kDeadlineExceeded &&
              advanced.code() != StatusCode::kCancelled) {
            writer_error = "unexpected Advance failure: " +
                           advanced.ToString();
            return;
          }
          advanced = standing.Advance(next, delta);  // retry, ungated
          if (!advanced.ok()) {
            writer_error = "Advance retry failed: " + advanced.ToString();
            return;
          }
        }
      }
      // Final checks, still under injection: the published document equals
      // the clean replay of exactly the successful deltas, and the standing
      // answers match a cold evaluation of the final epoch.
      const xml::PlaneEpoch last = publisher.Snapshot();
      if (xml::WriteXml(*last.tree) != xml::WriteXml(replay)) {
        writer_error = "published document diverged from the delta replay";
        return;
      }
      hype::BatchHypeEvaluator cold(*last.tree, standing_ptrs);
      std::vector<NodeVec> expected = cold.EvalAll(last.tree->root());
      for (size_t q = 0; q < standing_ptrs.size(); ++q) {
        if (standing.answers(q) != expected[q]) {
          writer_error = "standing answers diverged on the final epoch";
          return;
        }
      }
    });

    for (std::thread& c : clients) c.join();
    writer.join();
    service.Shutdown();
    fi.Disarm();

    EXPECT_EQ(writer_error, "");
    EXPECT_EQ(tally.bad_code, 0) << "non-terminal status code observed";
    EXPECT_EQ(tally.wrong_answer, 0)
        << "a kOk answer diverged from the solo oracle";
    const int64_t resolved = tally.ok + tally.deadline + tally.cancelled +
                             tally.shed + tally.unavailable;
    EXPECT_EQ(resolved, kClients * kQueriesPerClient);
    // No per-round ok > 0 assert: on a badly oversubscribed machine a whole
    // round can legitimately age past max_queue_age and shed everything --
    // that is the overload protection working. The cross-round total.ok
    // check below still catches "nothing ever succeeds".

    // The service accounted every submission exactly once, and its new
    // counters agree with the client-observed codes.
    auto stats = service.stats();
    EXPECT_EQ(stats.queries_submitted, kClients * kQueriesPerClient);
    EXPECT_EQ(stats.queries_answered, stats.queries_submitted);
    EXPECT_EQ(stats.queries_timed_out, tally.deadline);
    EXPECT_EQ(stats.queries_shed, tally.shed);
    EXPECT_EQ(stats.queries_cancelled, tally.cancelled);
    EXPECT_EQ(stats.queries_failed, tally.unavailable);

    total.ok += tally.ok;
    total.deadline += tally.deadline;
    total.cancelled += tally.cancelled;
    total.shed += tally.shed;
    total.unavailable += tally.unavailable;
    apply_failures_total += apply_failures;
  }

  // Across all rounds the storm must actually have exercised the failure
  // machinery: injected Apply failures occurred (and were survived), and
  // client-side cancellation resolved futures with kCancelled.
  EXPECT_GT(apply_failures_total, 0);
  EXPECT_GT(total.cancelled, 0);
  EXPECT_GT(total.ok, 0);
#endif  // SMOQE_FAULT_INJECTION
}

}  // namespace
}  // namespace smoqe
