// SMOQE serving benchmark: one named workload, one seed, every answer
// checked against the paper's oracle (Q(σ(T)) = Q'(T) via NaiveEvaluator on
// the materialized view), end-to-end metrics from an untraced run and
// per-layer metrics from a traced run of the same seeded inputs.
//
//   smoqe_serving_bench --workload view_hot|tenant_cold
//       --seed N --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// The last line of standard output is the JSON result. The benchmark
// reaches the system only through the public functions of the library's
// modules; per-layer time comes from spans recorded around those calls
// (harness.h Tracer), never from inside the library.
//
// Workloads (README.md states why each exists and what it should move):
//  * view_hot      in-memory QueryService over σ0, large document, 68
//                  distinct view queries, closed loop with 64 in flight;
//  * tenant_cold   RoleCatalog-backed service, small document, 2000 roles
//                  (Zipf) over a 256-role capacity, fresh random queries,
//                  closed loop with one request per client.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "automata/compiled_mfa.h"
#include "common/thread_pool.h"
#include "exec/query_service.h"
#include "exec/sharded_eval.h"
#include "gen/fixtures.h"
#include "harness.h"
#include "hype/transition_plane.h"
#include "inputs.h"
#include "oracle.h"
#include "policy/role_catalog.h"
#include "policy/role_compiler.h"
#include "rewrite/rewrite_cache.h"
#include "storage/durable_epoch.h"
#include "xml/doc_plane.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/parser.h"

namespace smoqebench {
namespace {

namespace fs = std::filesystem;
using smoqe::exec::QueryService;
using smoqe::exec::QueryServiceOptions;
using smoqe::exec::QueryServiceStats;
using smoqe::policy::RoleCatalog;
using smoqe::policy::RoleId;
using Answer = QueryService::Answer;

// ---- workload parameters (printed with every run) ----
constexpr int kHotPatients = 2000;
constexpr int kHotInflight = 64;
constexpr int kTenantPatients = 200;
constexpr int kTenantRoles = 2000;
constexpr size_t kRoleCapacity = 256;
constexpr double kZipfS = 1.0;
// The tenant policy and which roles are popular are the deployment, the
// same for every seed (as σ0 is for the view workloads); the seed draws the
// document and the traffic.
constexpr uint64_t kPolicySeed = 2007;
constexpr int kTenantGateSamples = 48;
// Enough Zipf draws to touch more than role_capacity distinct roles, so the
// role LRU is full and evicting when timing starts, as it is in the run.
constexpr int kTenantWarmup = 2048;
constexpr int kSnapshotEvery = 64;  // the service default
constexpr int kSetupReps = 15;      // setup_s = median of these
constexpr int kWarmRounds = 2;      // full passes over the view mix
constexpr int kWritePhaseWrites = 2000;  // p99 has 20 beyond
constexpr int kStoreProbeWrites = 1100;
constexpr int kPolicyProbeRoles = 256;
constexpr int kPolicyProbeAcquires = 1024;
constexpr size_t kPolicyProbeCapacity = 64;
constexpr int kFirstReadEvery = 16;  // a probe read after every 16th write
// peak_rss_mb is read when this many timed reads have completed (5-6 s
// into a run at this commit on 4 vCPUs), so it measures the footprint of a
// fixed amount of work, not of however many reads fit in the window.
constexpr int64_t kHotRssAtReads = 5000;
constexpr int64_t kTenantRssAtReads = 20000;

constexpr double kInf = std::numeric_limits<double>::infinity();

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}
int Clients() { return std::min(4, Nproc()); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string work_dir = ".bench_build/smoqebench/work";
  std::string trace_out;
};

// Everything a run reports; the last stdout line is built from it.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;

  void Fail(const std::string& why) {
    correct = false;
    std::printf("FAIL: %s\n", why.c_str());
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "smoqe_serving_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(smoqe::StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Die(what + ": " + v.status().ToString());
  return v.take();
}

double Seconds(Clock::time_point a) {
  return MsBetween(a, Clock::now()) / 1000.0;
}

// Percentile that must be reportable: a run too short to put ten samples
// beyond the rank is a configuration error, not a measurement.
double MustPercentile(const std::vector<double>& v, double q,
                      const std::string& what, Report* report) {
  auto p = Percentile(v, q);
  if (!p) {
    report->Fail(what + ": " + std::to_string(v.size()) +
                 " samples leave fewer than 10 beyond p" +
                 std::to_string(static_cast<int>(q * 100)));
    return 0;
  }
  return *p;
}

// Failed requests count as missing every latency limit: +inf latency.
std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ok ? s.latency_ms : kInf);
  return out;
}

int64_t CountFailed(const std::vector<Sample>& samples) {
  int64_t n = 0;
  for (const Sample& s : samples) n += s.ok ? 0 : 1;
  return n;
}

// Opens the span of one read in a traced phase (-1 when untraced); call it
// right before Submit.
int64_t BeginRead(Tracer* tracer, std::atomic<int64_t>* request_ids) {
  return tracer == nullptr
             ? -1
             : tracer->Begin("read", -1, request_ids->fetch_add(1));
}

// Wraps a service future: resolves (on the waiting thread) to whether the
// answer was OK, closing the read's span when the answer is observed;
// `check` may inspect the answer for correctness.
std::future<bool> Resolve(std::future<Answer> f, Tracer* tracer, int64_t span,
                          std::function<bool(const Answer&)> check) {
  return std::async(std::launch::deferred,
                    [f = std::move(f), tracer, span,
                     check = std::move(check)]() mutable {
                      const Answer a = f.get();
                      if (tracer != nullptr) tracer->End(span);
                      return check(a);
                    });
}

QueryServiceOptions BaseOptions() {
  QueryServiceOptions options;
  options.num_threads = Nproc();  // pool width pinned to nproc
  options.snapshot_every = kSnapshotEvery;
  return options;
}

// Counters a workload's service accumulated over a window.
QueryServiceStats Delta(const QueryServiceStats& a, const QueryServiceStats& b) {
  QueryServiceStats d;
#define SMOQEBENCH_D(f) d.f = b.f - a.f
  SMOQEBENCH_D(queries_submitted);
  SMOQEBENCH_D(queries_answered);
  SMOQEBENCH_D(queries_failed);
  SMOQEBENCH_D(batches);
  SMOQEBENCH_D(batches_full);
  SMOQEBENCH_D(batches_aged);
  SMOQEBENCH_D(coalesced_duplicates);
  SMOQEBENCH_D(evaluator_reuses);
  SMOQEBENCH_D(queries_timed_out);
  SMOQEBENCH_D(queries_shed);
  SMOQEBENCH_D(queries_cancelled);
  SMOQEBENCH_D(role_queries);
  SMOQEBENCH_D(role_groups);
  SMOQEBENCH_D(queries_retried);
  SMOQEBENCH_D(retries_exhausted);
  SMOQEBENCH_D(writes_applied);
  SMOQEBENCH_D(cache.hits);
  SMOQEBENCH_D(cache.misses);
#undef SMOQEBENCH_D
  return d;
}

void PrintServiceCounters(const char* label, const QueryServiceStats& s) {
  std::printf(
      "%s: %lld answered, %lld batches (%lld full, %lld aged), %lld "
      "coalesced, %lld evaluator reuses, queries_shed=%lld "
      "queries_retried=%lld retries_exhausted=%lld timed_out=%lld "
      "writes_applied=%lld\n",
      label, static_cast<long long>(s.queries_answered),
      static_cast<long long>(s.batches),
      static_cast<long long>(s.batches_full),
      static_cast<long long>(s.batches_aged),
      static_cast<long long>(s.coalesced_duplicates),
      static_cast<long long>(s.evaluator_reuses),
      static_cast<long long>(s.queries_shed),
      static_cast<long long>(s.queries_retried),
      static_cast<long long>(s.retries_exhausted),
      static_cast<long long>(s.queries_timed_out),
      static_cast<long long>(s.writes_applied));
}

// ---------------------------------------------------------------------------
// Write path: seeded deltas through QueryService::Apply.

struct WriteResult {
  std::vector<double> latency_ms;  // failed Applies as +inf
  std::vector<double> first_read_ms;
  uint64_t last_acked = 0;
  int64_t failed = 0;
  int64_t wal_rollbacks = 0, compactions_failed = 0;  // the service's store
};

// Applies `writes` deltas back to back. Apply call -> return is the write
// latency. Every kFirstReadEvery-th write is followed by one view read of
// `probe_mix` whose latency is the first read after a write (evaluator
// cache and plane store were just reset by the epoch swap).
WriteResult RunWrites(QueryService& service, DeltaStream& deltas, int writes,
                      const std::vector<std::string>& probe_mix) {
  WriteResult out;
  out.last_acked = service.document_version();
  for (int i = 0; i < writes; ++i) {
    smoqe::xml::PlaneEpoch epoch = service.storage()->Snapshot();
    smoqe::xml::TreeDelta delta = deltas.Next(*epoch.tree, epoch.version);
    const uint64_t to = delta.to_version();
    const Clock::time_point t0 = Clock::now();
    const smoqe::Status st = service.Apply(std::move(delta));
    out.latency_ms.push_back(st.ok() ? MsBetween(t0, Clock::now()) : kInf);
    if (st.ok()) {
      out.last_acked = to;
    } else {
      ++out.failed;
    }
    if (i % kFirstReadEvery == 0) {
      const std::string& q =
          probe_mix[(i / kFirstReadEvery) % probe_mix.size()];
      const Clock::time_point r0 = Clock::now();
      if (service.Query(q).ok()) {
        out.first_read_ms.push_back(MsBetween(r0, Clock::now()));
      }
    }
  }
  return out;
}

// The write path on the in-memory workloads' documents (traced run only):
// a durable service (view mode, σ0) opened over the workload's document
// applies a seeded write stream back to back, with a probe read after every
// kFirstReadEvery-th write. It runs after the read measurement, so it never
// overlaps the reads it does not belong to. Its gate: the service serves
// the last acknowledged version, every view query at that version matches
// the oracle on its tree, and storage::Recover of the directory after the
// service is closed (only the files survive, as after a crash) returns
// that version with identical WriteXml bytes.
WriteResult DurableWritePhase(const smoqe::xml::Tree& doc,
                              const std::string& dir, uint64_t seed,
                              const smoqe::view::ViewDef& sigma,
                              const std::vector<std::string>& mix,
                              Report* report) {
  QueryServiceOptions options = BaseOptions();
  options.view = &sigma;
  options.storage_dir = dir;
  auto service = Must(QueryService::Open(smoqe::xml::Tree(doc), options),
                      "durable write phase: Open");
  DeltaStream deltas(seed ^ 0xD17AULL);
  WriteResult out = RunWrites(*service, deltas, kWritePhaseWrites, mix);

  const smoqe::xml::PlaneEpoch epoch = service->storage()->Snapshot();
  if (epoch.version != out.last_acked) {
    report->Fail("write gate: served version " +
                 std::to_string(epoch.version) + " != last acknowledged " +
                 std::to_string(out.last_acked));
  }
  std::vector<NodeSet> served(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    Answer a = service->Query(mix[i]);
    if (!a.ok()) {
      report->Fail("write gate: read failed: " + a.status().ToString());
    } else {
      served[i] = a.take();
    }
  }
  out.wal_rollbacks = service->storage()->stats().wal_rollbacks;
  out.compactions_failed = service->storage()->stats().compactions_failed;
  service.reset();
  const ViewOracle oracle =
      Must(ViewOracle::Make(sigma, *epoch.tree), "Materialize σ0");
  const std::vector<std::string> mismatches = CheckAnswers(oracle, mix, served);
  for (const std::string& m : mismatches) report->Fail("write gate: " + m);
  smoqe::storage::RecoveryReport recovery;
  const smoqe::xml::PlaneEpoch recovered =
      Must(smoqe::storage::Recover(dir, &recovery), "write gate: Recover");
  if (recovered.version != out.last_acked) {
    report->Fail("write gate: recovered version " +
                 std::to_string(recovered.version) + " != last acknowledged " +
                 std::to_string(out.last_acked));
  }
  if (smoqe::xml::WriteXml(*recovered.tree) !=
      smoqe::xml::WriteXml(*epoch.tree)) {
    report->Fail("write gate: recovered document differs from the served one");
  }
  std::printf("write gate: %zu queries at v%llu vs NaiveEvaluator on that "
              "version's σ0(T), %zu mismatches; Recover returned v%llu\n",
              mix.size(), static_cast<unsigned long long>(epoch.version),
              mismatches.size(),
              static_cast<unsigned long long>(recovered.version));
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer probes for the traced run. Each drives one layer through its
// public API on the workload's document with spans around every call.

struct StoreProbe {
  double apply_ms = 0, apply_p99_ms = 0, recover_ms = 0;
  double bytes_per_write = 0, wal_bytes_per_write = 0;
  int64_t snapshots_written = 0, wal_rollbacks = 0, compactions_failed = 0;
};

int64_t FileSize(const fs::path& p) {
  std::error_code ec;
  const auto n = fs::file_size(p, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

// DurableEpochStore::Apply on the benchmark's own store: the storage layer
// without the service's dispatcher, then storage::Recover of what it left.
StoreProbe RunStoreProbe(const smoqe::xml::Tree& doc, const std::string& dir,
                         uint64_t seed, Tracer* tracer, Report* report) {
  StoreProbe out;
  smoqe::storage::StorageOptions options;
  options.snapshot_every = kSnapshotEvery;
  std::vector<double> lat;
  int64_t snapshot_bytes = 0;
  int64_t wal_start = 0;
  smoqe::storage::DurableEpochStore::Stats stats;
  {
    auto store = Must(smoqe::storage::DurableEpochStore::Open(
                          dir, options, smoqe::xml::Tree(doc)),
                      "store probe: Open");
    wal_start = FileSize(fs::path(dir) / "wal.log");
    DeltaStream deltas(seed ^ 0x5707EULL);
    std::set<std::string> seen_snapshots;
    auto new_snapshot_bytes = [&] {
      int64_t bytes = 0;
      for (const auto& f : fs::directory_iterator(dir)) {
        const std::string name = f.path().filename().string();
        if (f.path().extension() == ".snap" &&
            seen_snapshots.insert(name).second) {
          bytes += FileSize(f.path());
        }
      }
      return bytes;
    };
    new_snapshot_bytes();  // the initial snapshot is not a write's cost
    int64_t snapshots = store->stats().snapshots_written;
    for (int i = 0; i < kStoreProbeWrites; ++i) {
      smoqe::xml::PlaneEpoch epoch = store->Snapshot();
      smoqe::xml::TreeDelta delta = deltas.Next(*epoch.tree, epoch.version);
      smoqe::Status st;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "storage.apply");
        st = store->Apply(delta);
      }
      lat.push_back(MsBetween(t0, Clock::now()));
      if (!st.ok()) {
        report->Fail("store probe: Apply: " + st.ToString());
        return out;
      }
      const int64_t now_snapshots = store->stats().snapshots_written;
      if (now_snapshots != snapshots) {
        snapshots = now_snapshots;
        snapshot_bytes += new_snapshot_bytes();
      }
    }
    stats = store->stats();
  }
  out.apply_ms = Median(lat);
  out.apply_p99_ms = MustPercentile(lat, 0.99, "storage.apply_p99_ms", report);
  const int64_t wal_bytes =
      FileSize(fs::path(dir) / "wal.log") + stats.wal_bytes_trimmed - wal_start;
  out.wal_bytes_per_write =
      static_cast<double>(wal_bytes) / kStoreProbeWrites;
  out.bytes_per_write =
      static_cast<double>(wal_bytes + snapshot_bytes) / kStoreProbeWrites;
  out.snapshots_written = stats.snapshots_written;
  out.wal_rollbacks = stats.wal_rollbacks;
  out.compactions_failed = stats.compactions_failed;
  smoqe::storage::RecoveryReport recovery;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "storage.recover");
    Must(smoqe::storage::Recover(dir, &recovery), "store probe: Recover");
  }
  out.recover_ms = MsBetween(t0, Clock::now());
  return out;
}

struct PolicyProbe {
  std::vector<double> cold_us, warm_us;
};

// One timed RoleCatalog::Acquire, classified cold or warm by the catalog's
// own compile counter.
std::shared_ptr<RoleCatalog::Entry> TimedAcquire(RoleCatalog& catalog,
                                                 RoleId role, Tracer* tracer,
                                                 int64_t parent,
                                                 PolicyProbe* out) {
  const int64_t before = catalog.stats().compiles;
  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<RoleCatalog::Entry> entry;
  {
    ScopedSpan span(tracer, "policy.acquire", parent);
    entry = Must(catalog.Acquire(role), "Acquire");
  }
  const double us = MsBetween(t0, Clock::now()) * 1000.0;
  (catalog.stats().compiles != before ? out->cold_us : out->warm_us)
      .push_back(us);
  return entry;
}

// ---------------------------------------------------------------------------
// Direct-pipeline replay: the request stream the service saw, driven
// through the layers themselves (compile, plane registration, sharded
// evaluation) in batches of the service's mean batch size.

struct Request {
  RoleId role = smoqe::policy::kNoRole;
  std::string text;
};

struct Replay {
  std::vector<double> batch_ms, evalall_ms;
  std::vector<double> hit_us, miss_us;
  std::vector<double> parse_us, build_us;
  double mfa_states = 0;
  double configs_interned = 0, elements_visited = 0, cans_vertices = 0;
  double positions_jumped = 0, shard_groups = 0;
  int64_t fallback = 0, evaluated = 0, hits = 0, misses = 0;
  int64_t plane_bytes = 0;
  int64_t queries = 0, batches = 0;
  PolicyProbe policy;
};

// `catalog` null = view mode through `cache`.
Replay RunReplay(const smoqe::xml::Tree& tree,
                 const smoqe::xml::DocPlane& plane,
                 smoqe::rewrite::RewriteCache* cache, RoleCatalog* catalog,
                 const std::vector<Request>& stream, int batch_size,
                 double budget_seconds, Tracer* tracer) {
  Replay out;
  smoqe::common::ThreadPool pool(Nproc());
  smoqe::hype::TransitionPlaneStore store(tree, nullptr);
  std::vector<std::shared_ptr<const smoqe::automata::Mfa>> distinct;
  std::set<const smoqe::automata::Mfa*> seen;
  double interned = 0, visited = 0, cans = 0, jumped = 0, groups = 0;
  const Clock::time_point start = Clock::now();
  size_t next = 0;
  while (next < stream.size() && Seconds(start) < budget_seconds) {
    ScopedSpan batch_span(tracer, "exec.batch");
    const Clock::time_point b0 = Clock::now();
    // One evaluation group per serving partition, duplicates coalesced --
    // the shape of the service's ProcessBatch.
    struct Group {
      std::shared_ptr<RoleCatalog::Entry> entry;
      std::vector<std::shared_ptr<const smoqe::automata::Mfa>> mfas;
    };
    std::map<RoleId, Group> by_role;
    for (int j = 0; j < batch_size && next < stream.size(); ++j, ++next) {
      const Request& req = stream[next];
      Group& group = by_role[req.role];
      if (catalog != nullptr && group.entry == nullptr) {
        group.entry = TimedAcquire(*catalog, req.role, tracer,
                                   batch_span.id(), &out.policy);
      }
      const smoqe::rewrite::RewriteCacheStats before =
          group.entry != nullptr ? group.entry->cache_stats() : cache->stats();
      const Clock::time_point c0 = Clock::now();
      smoqe::rewrite::CompiledQuery compiled;
      {
        ScopedSpan span(tracer, "rewrite.get", batch_span.id());
        compiled = Must(group.entry != nullptr
                            ? group.entry->Compile(req.text)
                            : cache->Get(req.text),
                        "replay compile of " + req.text);
      }
      const double us = MsBetween(c0, Clock::now()) * 1000.0;
      const int64_t hits_after = group.entry != nullptr
                                     ? group.entry->cache_stats().hits
                                     : cache->stats().hits;
      if (hits_after != before.hits) {
        out.hit_us.push_back(us);
        ++out.hits;
      } else {
        out.miss_us.push_back(us);
        ++out.misses;
      }
      smoqe::hype::TransitionPlaneStore& planes =
          group.entry != nullptr ? group.entry->planes() : store;
      if (std::find(group.mfas.begin(), group.mfas.end(), compiled.mfa) ==
          group.mfas.end()) {
        planes.For(compiled.mfa.get(), compiled.compiled, compiled.mfa);
        group.mfas.push_back(compiled.mfa);
      }
      if (seen.insert(compiled.mfa.get()).second &&
          distinct.size() < 256) {
        distinct.push_back(compiled.mfa);
      }
      ++out.queries;
    }
    for (auto& [role, group] : by_role) {
      std::vector<const smoqe::automata::Mfa*> ptrs;
      for (const auto& m : group.mfas) ptrs.push_back(m.get());
      smoqe::exec::ShardedOptions options;
      options.plane = &plane;
      options.pool = &pool;
      options.plane_store =
          group.entry != nullptr ? &group.entry->planes() : &store;
      std::unique_ptr<smoqe::exec::ShardedBatchEvaluator> eval;
      {
        ScopedSpan span(tracer, "exec.evaluator", batch_span.id());
        eval = std::make_unique<smoqe::exec::ShardedBatchEvaluator>(
            tree, ptrs, options);
      }
      const Clock::time_point e0 = Clock::now();
      {
        ScopedSpan span(tracer, "exec.evalall", batch_span.id());
        eval->EvalAll(tree.root());
      }
      out.evalall_ms.push_back(MsBetween(e0, Clock::now()));
      const smoqe::exec::ShardedStats& st = eval->stats();
      jumped += static_cast<double>(st.pass.positions_jumped);
      groups += st.num_groups;
      out.fallback += st.num_fallback_queries;
      out.evaluated += st.num_sharded_queries + st.num_fallback_queries +
                       st.num_dead_queries;
      for (size_t i = 0; i < ptrs.size(); ++i) {
        const smoqe::hype::EvalStats& m = eval->merged_stats(i);
        interned += static_cast<double>(m.configs_interned);
        visited += static_cast<double>(m.elements_visited);
        cans += static_cast<double>(m.cans_vertices);
      }
    }
    out.batch_ms.push_back(MsBetween(b0, Clock::now()));
    ++out.batches;
  }
  const double nq = static_cast<double>(std::max<int64_t>(1, out.evaluated));
  out.configs_interned = interned / nq;
  out.elements_visited = visited / nq;
  out.cans_vertices = cans / nq;
  const double nb = static_cast<double>(std::max<size_t>(1, out.evalall_ms.size()));
  out.positions_jumped = jumped / static_cast<double>(std::max<int64_t>(1, out.batches));
  out.shard_groups = groups / nb;
  out.plane_bytes = catalog != nullptr ? catalog->plane_stats().approx_bytes
                                       : store.stats().approx_bytes;
  // Layer probes outside the batch timing: the parse prefix of every
  // replayed text, and the CSR flattening of every distinct MFA.
  for (size_t i = 0; i < std::min<size_t>(next, 512); ++i) {
    const Clock::time_point p0 = Clock::now();
    {
      ScopedSpan span(tracer, "xpath.parse");
      Must(smoqe::xpath::ParseQuery(stream[i].text), "ParseQuery");
    }
    out.parse_us.push_back(MsBetween(p0, Clock::now()) * 1000.0);
  }
  double states = 0;
  for (const auto& mfa : distinct) {
    const Clock::time_point a0 = Clock::now();
    {
      ScopedSpan span(tracer, "automata.build");
      smoqe::automata::CompiledMfa::Build(*mfa);
    }
    out.build_us.push_back(MsBetween(a0, Clock::now()) * 1000.0);
    states += mfa->num_nfa_states() + mfa->num_afa_states();
  }
  out.mfa_states = states / static_cast<double>(std::max<size_t>(1, distinct.size()));
  return out;
}

// The service's mean admission batch over a phase: the replay's batch size.
int MeanBatch(const QueryServiceStats& s) {
  return std::max<int>(
      1, static_cast<int>(std::lround(
             static_cast<double>(s.queries_answered) /
             static_cast<double>(std::max<int64_t>(1, s.batches)))));
}

// The view mix replayed in order. The replay's cache is warmed like the
// service's: every query compiled once (the misses), then the batches (the
// hits).
Replay ViewReplay(const smoqe::xml::Tree& tree,
                  const smoqe::xml::DocPlane& plane,
                  const smoqe::view::ViewDef& sigma,
                  const std::vector<std::string>& mix, int batch_size,
                  double budget_seconds, Tracer* tracer) {
  smoqe::rewrite::RewriteCache cache(&sigma);
  std::vector<Request> stream;
  for (size_t i = 0; i < 16 * mix.size(); ++i) {
    stream.push_back({smoqe::policy::kNoRole, mix[i % mix.size()]});
  }
  const std::vector<Request> warm(stream.begin(), stream.begin() + mix.size());
  const Replay cold =
      RunReplay(tree, plane, &cache, nullptr, warm, 1, kInf, tracer);
  Replay out = RunReplay(tree, plane, &cache, nullptr, stream, batch_size,
                         budget_seconds, tracer);
  out.miss_us = cold.miss_us;
  return out;
}

// ---------------------------------------------------------------------------
// Shared reporting.

struct ReadPhase {
  LoadResult load;
  QueryServiceStats stats;  // counters over the phase
};

// Latency summary for the log (percentiles with fewer than ten samples
// beyond them are left out).
void PrintLatencies(const char* what, const std::vector<double>& lat) {
  std::printf("%s latency ms (%zu samples):", what, lat.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (auto p = Percentile(lat, q)) std::printf(" p%g=%.3f", q * 100, *p);
  }
  if (!lat.empty()) {
    std::printf(" max=%.3f", *std::max_element(lat.begin(), lat.end()));
  }
  std::printf("\n");
}

// The read metrics cover every read of the run: failed reads are +inf
// latency, so they land in the tail.
void ReportReads(const ReadPhase& phase, Report* report) {
  const std::vector<double> lat = Latencies(phase.load.samples);
  const int64_t failed = CountFailed(phase.load.samples);
  report->attempted += static_cast<int64_t>(lat.size());
  report->failed += failed;
  report->Add("read_qps",
              static_cast<double>(static_cast<int64_t>(lat.size()) - failed) /
                  phase.load.seconds,
              "ops/s");
  report->Add("read_p50_ms", MustPercentile(lat, 0.50, "read_p50_ms", report),
              "ms");
  report->Add("read_p99_ms", MustPercentile(lat, 0.99, "read_p99_ms", report),
              "ms");
  std::printf("reads: %zu samples (%lld failed) over %.3f s\n", lat.size(),
              static_cast<long long>(failed), phase.load.seconds);
  PrintLatencies("read", lat);
  PrintServiceCounters("service", phase.stats);
}

void CountWrites(const WriteResult& w, Report* report) {
  report->attempted += static_cast<int64_t>(w.latency_ms.size());
  report->failed += w.failed;
}

// Per-layer metrics shared by every workload's traced run.
struct LayerInputs {
  double parse_ms = 0, plane_build_ms = 0;
  ReadPhase untraced, traced;
  std::vector<double> traced_latency;  // OK reads of the traced phase
  Replay replay;
  int64_t role_hits = 0, role_compiles = 0, planes_evicted = 0;
  StoreProbe store;
  WriteResult writes;  // QueryService::Apply latencies + first reads after
};

void ReportLayers(const LayerInputs& in, Report* report) {
  for (const ReadPhase* phase : {&in.untraced, &in.traced}) {
    report->attempted += static_cast<int64_t>(phase->load.samples.size());
    report->failed += CountFailed(phase->load.samples);
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const Replay& r = in.replay;
  const QueryServiceStats& s = in.traced.stats;
  report->Add("xml.parse_ms", in.parse_ms, "ms");
  report->Add("xml.plane_build_ms", in.plane_build_ms, "ms");
  report->Add("xpath.parse_us", Median(r.parse_us), "us");
  report->Add("rewrite.hit_ratio",
              ratio(static_cast<double>(r.hits),
                    static_cast<double>(r.hits + r.misses)),
              "ratio");
  report->Add("rewrite.miss_us", Median(r.miss_us), "us");
  report->Add("rewrite.hit_us", Median(r.hit_us), "us");
  report->Add("automata.build_us", Median(r.build_us), "us");
  report->Add("automata.mfa_states", r.mfa_states, "count");
  report->Add("policy.acquire_cold_us", Median(r.policy.cold_us), "us");
  report->Add("policy.acquire_warm_us", Median(r.policy.warm_us), "us");
  report->Add("policy.role_hit_ratio",
              ratio(static_cast<double>(in.role_hits),
                    static_cast<double>(in.role_hits + in.role_compiles)),
              "ratio");
  report->Add("policy.planes_evicted", static_cast<double>(in.planes_evicted),
              "count");
  report->Add("hype.configs_interned_per_query", r.configs_interned, "count");
  report->Add("hype.plane_bytes", static_cast<double>(r.plane_bytes), "bytes");
  report->Add("hype.elements_visited_per_query", r.elements_visited, "count");
  report->Add("hype.positions_jumped_per_batch", r.positions_jumped, "count");
  report->Add("hype.cans_vertices_per_query", r.cans_vertices, "count");
  const double groups = static_cast<double>(
      s.role_groups > 0 ? s.role_groups : s.batches);
  report->Add("exec.evalall_ms", Median(r.evalall_ms), "ms");
  report->Add("exec.shard_groups", r.shard_groups, "count");
  report->Add("exec.fallback_frac",
              ratio(static_cast<double>(r.fallback),
                    static_cast<double>(r.evaluated)),
              "ratio");
  report->Add("exec.batch_size_mean",
              ratio(static_cast<double>(s.queries_answered),
                    static_cast<double>(s.batches)),
              "count");
  report->Add("exec.batches_aged_frac",
              ratio(static_cast<double>(s.batches_aged),
                    static_cast<double>(s.batches)),
              "ratio");
  report->Add("exec.coalesced_frac",
              ratio(static_cast<double>(s.coalesced_duplicates),
                    static_cast<double>(s.queries_answered)),
              "ratio");
  report->Add("exec.evaluator_reuse_ratio",
              ratio(static_cast<double>(s.evaluator_reuses), groups), "ratio");
  report->Add("exec.service_overhead_ms",
              Median(in.traced_latency) - Median(r.batch_ms), "ms");
  report->Add("exec.write_p50_ms",
              MustPercentile(in.writes.latency_ms, 0.50, "exec.write_p50_ms",
                             report),
              "ms");
  report->Add("exec.write_p99_ms",
              MustPercentile(in.writes.latency_ms, 0.99, "exec.write_p99_ms",
                             report),
              "ms");
  report->Add("exec.first_read_after_write_ms",
              Median(in.writes.first_read_ms), "ms");
  report->Add("exec.queries_retried", static_cast<double>(s.queries_retried),
              "count");
  report->Add("exec.queries_shed", static_cast<double>(s.queries_shed),
              "count");
  report->Add("exec.retries_exhausted",
              static_cast<double>(s.retries_exhausted), "count");
  report->Add("storage.apply_ms", in.store.apply_ms, "ms");
  report->Add("storage.apply_p99_ms", in.store.apply_p99_ms, "ms");
  report->Add("storage.recover_ms", in.store.recover_ms, "ms");
  report->Add("storage.bytes_per_write", in.store.bytes_per_write, "bytes");
  report->Add("storage.wal_bytes_per_write", in.store.wal_bytes_per_write,
              "bytes");
  report->Add("storage.snapshots_written",
              static_cast<double>(in.store.snapshots_written), "count");
  report->Add("storage.wal_rollbacks",
              static_cast<double>(in.store.wal_rollbacks +
                                  in.writes.wal_rollbacks),
              "count");
  report->Add("storage.compactions_failed",
              static_cast<double>(in.store.compactions_failed +
                                  in.writes.compactions_failed),
              "count");
  std::vector<double> late = in.untraced.load.late_ms;
  late.insert(late.end(), in.traced.load.late_ms.begin(),
              in.traced.load.late_ms.end());
  report->Add("loadgen.late_p99_ms",
              MustPercentile(late, 0.99, "loadgen.late_p99_ms", report), "ms");
  const std::vector<double> untraced_lat = Latencies(in.untraced.load.samples);
  report->Add("loadgen.tracing_overhead_frac",
              ratio(Median(in.traced_latency), Median(untraced_lat)) - 1.0,
              "ratio");
  std::printf("replay: %lld queries in %lld batches, %lld rewrite hits / %lld "
              "misses; policy: %zu cold / %zu warm acquires\n",
              static_cast<long long>(r.queries),
              static_cast<long long>(r.batches),
              static_cast<long long>(r.hits), static_cast<long long>(r.misses),
              r.policy.cold_us.size(), r.policy.warm_us.size());
}

// The policy layer on workloads that serve no roles: the tenant policy's
// Zipf role stream acquired against a catalog over this workload's
// document.
void PolicyProbeInto(const smoqe::xml::Tree& tree, uint64_t seed,
                     Tracer* tracer, LayerInputs* in) {
  const smoqe::policy::Policy policy =
      TenantPolicy(kPolicyProbeRoles, kPolicySeed);
  smoqe::policy::RoleCatalogOptions options;
  options.role_capacity = kPolicyProbeCapacity;
  RoleCatalog catalog(policy, tree, nullptr, options);
  const ZipfRoles roles(kPolicyProbeRoles, kZipfS, kPolicySeed);
  std::mt19937_64 rng(seed ^ 0xA11CEULL);
  for (int i = 0; i < kPolicyProbeAcquires; ++i) {
    TimedAcquire(catalog, roles.Next(&rng), tracer, -1, &in->replay.policy);
  }
  const smoqe::policy::RoleCatalogStats st = catalog.stats();
  in->role_hits = st.hits;
  in->role_compiles = st.compiles;
  in->planes_evicted = st.planes_evicted;
}

// ParseXml, then DocPlane::Build, each under its own span; the times feed
// xml.parse_ms and xml.plane_build_ms.
void LoadDocument(const std::string& xml_text, Tracer* tracer, int64_t parent,
                  LayerInputs* layers, smoqe::xml::Tree* tree,
                  smoqe::xml::DocPlane* plane) {
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "xml.parse", parent);
    *tree = Must(smoqe::xml::ParseXml(xml_text), "ParseXml");
  }
  layers->parse_ms = MsBetween(t0, Clock::now());
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "xml.plane_build", parent);
    *plane = smoqe::xml::DocPlane::Build(*tree);
  }
  layers->plane_build_ms = MsBetween(t0, Clock::now());
}

void PrintSetups(const std::vector<double>& setup_s) {
  std::printf("setup s:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
}

// peak_rss_mb: the serving footprint. Construct it once set-up-only memory
// (the XML text, the oracle) is freed: it restarts the peak resident set
// there, and reads the peak when the `at`-th timed read completes (at the
// end of a run that serves fewer).
class Footprint {
 public:
  explicit Footprint(int64_t at) : at_(at) {
    if (!ResetPeakRss()) {
      std::printf("note: peak-RSS reset refused; peak_rss_mb includes "
                  "set-up\n");
    }
  }
  void Served() {
    if (served_.fetch_add(1) + 1 == at_) mb_ = PeakRssMb();
  }
  // Call after the load generator has joined its clients.
  double Mb() const {
    if (mb_ > 0) return mb_;
    std::printf("note: %lld reads served, fewer than %lld; peak_rss_mb read "
                "at the end\n",
                static_cast<long long>(served_.load()),
                static_cast<long long>(at_));
    return PeakRssMb();
  }

 private:
  const int64_t at_;
  std::atomic<int64_t> served_{0};
  double mb_ = 0;  // written by the client thread that completes read at_
};

// ---------------------------------------------------------------------------
// view_hot

struct ViewServing {
  smoqe::xml::Tree tree;
  smoqe::xml::DocPlane plane;
  std::unique_ptr<QueryService> service;
};

// Submits every query of the mix `rounds` times (one burst per round) and
// returns the last round's answers.
std::vector<NodeSet> WarmViewService(QueryService& service,
                                     const std::vector<std::string>& mix,
                                     int rounds, Report* report) {
  std::vector<NodeSet> answers(mix.size());
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::future<Answer>> futures;
    for (const std::string& q : mix) futures.push_back(service.Submit(q));
    for (size_t i = 0; i < mix.size(); ++i) {
      Answer a = futures[i].get();
      if (!a.ok()) {
        report->Fail("warm-up read failed: " + mix[i] + ": " +
                     a.status().ToString());
        continue;
      }
      answers[i] = a.take();
    }
  }
  return answers;
}

std::unique_ptr<ViewServing> SetupViewHot(const std::string& xml_text,
                                          const smoqe::view::ViewDef& sigma,
                                          const std::vector<std::string>& mix,
                                          Tracer* tracer, LayerInputs* layers,
                                          std::vector<NodeSet>* warm_answers,
                                          Report* report) {
  auto s = std::make_unique<ViewServing>();
  ScopedSpan setup(tracer, "setup");
  LoadDocument(xml_text, tracer, setup.id(), layers, &s->tree, &s->plane);
  QueryServiceOptions options = BaseOptions();
  options.view = &sigma;
  options.plane = &s->plane;
  {
    ScopedSpan span(tracer, "exec.service_build", setup.id());
    s->service = std::make_unique<QueryService>(s->tree, options);
  }
  {
    ScopedSpan span(tracer, "warmup", setup.id());
    *warm_answers = WarmViewService(*s->service, mix, kWarmRounds, report);
  }
  const QueryServiceStats st = s->service->stats();
  if (st.cache.misses != static_cast<int64_t>(mix.size())) {
    report->Fail("warm-up compiled " + std::to_string(st.cache.misses) +
                 " of " + std::to_string(mix.size()) + " queries");
  }
  return s;
}

// Closed-loop view reads; answers are checked against `expected` in flight.
ReadPhase ViewClosedLoop(QueryService& service,
                         const std::vector<std::string>& mix,
                         const std::vector<NodeSet>& expected, double seconds,
                         Tracer* tracer, Footprint* footprint,
                         std::atomic<int64_t>* wrong) {
  const int clients = Clients();
  const int stride = static_cast<int>(mix.size()) / clients;
  std::atomic<int64_t> request_ids{0};
  ReadPhase phase;
  const QueryServiceStats before = service.stats();
  phase.load = RunClosedLoop(
      clients, kHotInflight / clients, seconds,
      [&](int client, int64_t seq) {
        // Staggered per client: client c starts c/clients of the way into
        // the seeded mix, so one admission batch is not four copies of
        // the same queries.
        const size_t qi = static_cast<size_t>(client * stride + seq) %
                          mix.size();
        const int64_t span = BeginRead(tracer, &request_ids);
        return Resolve(service.Submit(mix[qi]), tracer, span,
                       [&, qi](const Answer& a) {
                         if (footprint != nullptr) footprint->Served();
                         if (a.ok() && a.value() != expected[qi]) {
                           wrong->fetch_add(1);
                         }
                         return a.ok();
                       });
      });
  phase.stats = Delta(before, service.stats());
  return phase;
}

std::vector<double> OkLatencies(const LoadResult& load) {
  std::vector<double> out;
  for (const Sample& s : load.samples) {
    if (s.ok) out.push_back(s.latency_ms);
  }
  return out;
}

void RunViewHot(const Args& args, const fs::path& work, Tracer* tracer,
                Report* report) {
  std::string xml_text = HospitalXml(kHotPatients, args.seed);
  const smoqe::view::ViewDef sigma = smoqe::gen::HospitalView();
  const std::vector<std::string> mix = ViewQueryMix(args.seed);

  LayerInputs layers;
  std::vector<double> setup_s;
  std::unique_ptr<ViewServing> s;
  std::vector<NodeSet> warm_answers;
  for (int rep = 0; rep < (tracer != nullptr ? 1 : kSetupReps); ++rep) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = SetupViewHot(xml_text, sigma, mix, tracer, &layers, &warm_answers,
                     report);
    setup_s.push_back(Seconds(t0));
  }
  std::string().swap(xml_text);  // set-up-only input: freed before timing
  std::printf("view_hot: %d patients, %d tree nodes, %zu distinct view "
              "queries, %d in flight from %d clients, pool %d\n",
              kHotPatients, s->tree.size(), mix.size(), kHotInflight,
              Clients(), s->service->num_threads());

  {
    // Correctness gate before timing; the oracle is freed when it is done.
    const ViewOracle oracle =
        Must(ViewOracle::Make(sigma, s->tree), "Materialize σ0");
    const std::vector<std::string> mismatches =
        CheckAnswers(oracle, mix, warm_answers);
    for (const std::string& m : mismatches) report->Fail("gate: " + m);
    int nonempty = 0;
    for (const NodeSet& a : warm_answers) nonempty += a.empty() ? 0 : 1;
    std::printf("gate: %zu queries checked against NaiveEvaluator on σ0(T), "
                "%zu mismatches, %d non-empty answers\n",
                mix.size(), mismatches.size(), nonempty);
  }
  if (!report->correct) return;

  std::atomic<int64_t> wrong{0};
  if (tracer == nullptr) {
    Footprint footprint(kHotRssAtReads);
    ReadPhase reads = ViewClosedLoop(*s->service, mix, warm_answers,
                                     args.seconds, nullptr, &footprint, &wrong);
    ReportReads(reads, report);
    PrintSetups(setup_s);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", footprint.Mb(), "MB");
  } else {
    layers.untraced = ViewClosedLoop(*s->service, mix, warm_answers,
                                     args.seconds / 2, nullptr, nullptr,
                                     &wrong);
    layers.traced = ViewClosedLoop(*s->service, mix, warm_answers,
                                   args.seconds / 2, tracer, nullptr, &wrong);
    layers.traced_latency = OkLatencies(layers.traced.load);
    layers.replay = ViewReplay(s->tree, s->plane, sigma, mix,
                               MeanBatch(layers.traced.stats),
                               args.seconds / 4, tracer);
    PolicyProbeInto(s->tree, args.seed, tracer, &layers);
    WriteResult writes = DurableWritePhase(
        s->tree, (work / "writes").string(), args.seed, sigma, mix, report);
    CountWrites(writes, report);
    layers.writes = writes;
    layers.store = RunStoreProbe(s->tree, (work / "store").string(),
                                 args.seed, tracer, report);
    ReportLayers(layers, report);
  }
  if (wrong.load() != 0) {
    report->Fail(std::to_string(wrong.load()) +
                 " served answers differed from the gate's during the run");
  }
}

// ---------------------------------------------------------------------------
// tenant_cold

struct TenantServing {
  smoqe::xml::Tree tree;
  smoqe::xml::DocPlane plane;
  std::unique_ptr<RoleCatalog> catalog;
  std::unique_ptr<QueryService> service;
};

std::unique_ptr<TenantServing> SetupTenant(
    const std::string& xml_text, const smoqe::policy::Policy& policy,
    const ZipfRoles& roles, uint64_t seed, Tracer* tracer,
    LayerInputs* layers, Report* report) {
  auto s = std::make_unique<TenantServing>();
  ScopedSpan setup(tracer, "setup");
  LoadDocument(xml_text, tracer, setup.id(), layers, &s->tree, &s->plane);
  smoqe::policy::RoleCatalogOptions catalog_options;
  catalog_options.role_capacity = kRoleCapacity;
  {
    ScopedSpan span(tracer, "exec.service_build", setup.id());
    s->catalog = std::make_unique<RoleCatalog>(policy, s->tree, nullptr,
                                               catalog_options);
    QueryServiceOptions options = BaseOptions();
    options.catalog = s->catalog.get();
    options.plane = &s->plane;
    s->service = std::make_unique<QueryService>(s->tree, options);
  }
  {
    // Warm-up brings the role LRU to its steady state under the Zipf
    // stream; the queries are fresh ones, as in the run.
    ScopedSpan span(tracer, "warmup", setup.id());
    TenantStream stream(roles, seed ^ 0x3A53ULL);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < kTenantWarmup; ++i) {
      auto [role, text] = stream.Next();
      smoqe::exec::SubmitOptions submit;
      submit.role = role;
      futures.push_back(s->service->Submit(text, submit));
    }
    for (auto& f : futures) {
      const Answer a = f.get();
      if (!a.ok()) report->Fail("warm-up read failed: " + a.status().ToString());
    }
  }
  return s;
}

// Sampled (role, query) pairs, each checked against materialize-then-
// evaluate under the role's compiled view.
void TenantGate(TenantServing& s, const smoqe::policy::Policy& policy,
                const ZipfRoles& roles, uint64_t seed, Report* report) {
  TenantStream stream(roles, seed ^ 0x6A7EULL);
  std::vector<std::pair<RoleId, std::string>> sample;
  std::vector<std::future<Answer>> futures;
  for (int i = 0; i < kTenantGateSamples; ++i) {
    sample.push_back(stream.Next());
    smoqe::exec::SubmitOptions submit;
    submit.role = sample.back().first;
    futures.push_back(s.service->Submit(sample.back().second, submit));
  }
  std::map<RoleId, std::unique_ptr<ViewOracle>> oracles;
  std::map<RoleId, smoqe::policy::CompiledRole> compiled;
  int mismatches = 0, nonempty = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const auto& [role, text] = sample[i];
    Answer a = futures[i].get();
    if (!a.ok()) {
      report->Fail("gate read failed: " + a.status().ToString());
      continue;
    }
    if (!compiled.count(role)) {
      compiled[role] =
          Must(smoqe::policy::CompileRole(policy, role), "CompileRole");
      if (!compiled[role].root_hidden) {
        oracles[role] = std::make_unique<ViewOracle>(
            Must(ViewOracle::Make(*compiled[role].view, s.tree),
                 "Materialize role view"));
      }
    }
    std::vector<std::string> bad;
    if (compiled[role].root_hidden) {
      if (!a.value().empty()) bad.push_back(text + ": hidden root answered");
    } else {
      bad = CheckAnswers(*oracles[role], {text}, {a.value()});
    }
    for (const std::string& m : bad) {
      ++mismatches;
      report->Fail("gate: " + policy.role_name(role) + ": " + m);
    }
    nonempty += a.value().empty() ? 0 : 1;
  }
  std::printf("gate: %d (role, query) pairs over %zu roles checked against "
              "materialize-then-evaluate, %d mismatches, %d non-empty\n",
              kTenantGateSamples, compiled.size(), mismatches, nonempty);
}

// One (role, query) stream per client. The timed run draws from them; the
// traced run's two halves draw from the same streams in turn, so the traced
// half sends fresh queries too.
using ClientStreams = std::vector<std::unique_ptr<TenantStream>>;

uint64_t ClientSeed(uint64_t seed, int client) {
  return seed * 1000003ULL + static_cast<uint64_t>(client);
}

ClientStreams MakeClientStreams(const ZipfRoles& roles, uint64_t seed) {
  ClientStreams streams;
  for (int c = 0; c < Clients(); ++c) {
    streams.push_back(std::make_unique<TenantStream>(roles, ClientSeed(seed, c)));
  }
  return streams;
}

ReadPhase TenantClosedLoop(QueryService& service, ClientStreams& streams,
                           double seconds, Tracer* tracer,
                           Footprint* footprint) {
  const int clients = static_cast<int>(streams.size());
  std::atomic<int64_t> request_ids{0};
  ReadPhase phase;
  const QueryServiceStats before = service.stats();
  phase.load = RunClosedLoop(
      clients, 1, seconds, [&](int client, int64_t) {
        auto [role, text] = streams[client]->Next();
        smoqe::exec::SubmitOptions submit;
        submit.role = role;
        const int64_t span = BeginRead(tracer, &request_ids);
        return Resolve(service.Submit(std::move(text), submit), tracer, span,
                       [footprint](const Answer& a) {
                         if (footprint != nullptr) footprint->Served();
                         return a.ok();
                       });
      });
  phase.stats = Delta(before, service.stats());
  return phase;
}

void RunTenantCold(const Args& args, const fs::path& work, Tracer* tracer,
                   Report* report) {
  std::string xml_text = HospitalXml(kTenantPatients, args.seed);
  const smoqe::policy::Policy policy = TenantPolicy(kTenantRoles, kPolicySeed);
  const ZipfRoles roles(kTenantRoles, kZipfS, kPolicySeed);
  const smoqe::view::ViewDef sigma = smoqe::gen::HospitalView();
  const std::vector<std::string> mix = ViewQueryMix(args.seed);

  LayerInputs layers;
  std::vector<double> setup_s;
  std::unique_ptr<TenantServing> s;
  for (int rep = 0; rep < (tracer != nullptr ? 1 : kSetupReps); ++rep) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = SetupTenant(xml_text, policy, roles, args.seed, tracer, &layers,
                    report);
    setup_s.push_back(Seconds(t0));
  }
  std::string().swap(xml_text);  // set-up-only input: freed before timing
  std::printf("tenant_cold: %d patients, %d tree nodes, %d roles (Zipf s=%.1f)"
              " over role_capacity %zu, %d clients x 1 in flight, pool %d\n",
              kTenantPatients, s->tree.size(), kTenantRoles, kZipfS,
              kRoleCapacity, Clients(), s->service->num_threads());
  TenantGate(*s, policy, roles, args.seed, report);
  if (!report->correct) return;

  ClientStreams streams = MakeClientStreams(roles, args.seed);
  if (tracer == nullptr) {
    Footprint footprint(kTenantRssAtReads);
    ReadPhase reads = TenantClosedLoop(*s->service, streams, args.seconds,
                                       nullptr, &footprint);
    ReportReads(reads, report);
    const smoqe::policy::RoleCatalogStats cs = s->catalog->stats();
    std::printf("catalog: %lld role compiles, %lld hits, %lld evicted\n",
                static_cast<long long>(cs.compiles),
                static_cast<long long>(cs.hits),
                static_cast<long long>(cs.planes_evicted));
    PrintSetups(setup_s);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", footprint.Mb(), "MB");
    return;
  }
  layers.untraced = TenantClosedLoop(*s->service, streams, args.seconds / 2,
                                     nullptr, nullptr);
  const smoqe::policy::RoleCatalogStats c0 = s->catalog->stats();
  layers.traced = TenantClosedLoop(*s->service, streams, args.seconds / 2,
                                   tracer, nullptr);
  const smoqe::policy::RoleCatalogStats c1 = s->catalog->stats();
  layers.traced_latency = OkLatencies(layers.traced.load);
  layers.role_hits = c1.hits - c0.hits;
  layers.role_compiles = c1.compiles - c0.compiles;
  layers.planes_evicted = c1.planes_evicted - c0.planes_evicted;
  // Client 0's stream from its start, through a fresh catalog, so compiles
  // are as cold as they were for the service; then the last requests again,
  // whose roles are still resident, so rewrite hits are measured too.
  TenantStream stream(roles, ClientSeed(args.seed, 0));
  std::vector<Request> requests;
  for (int i = 0; i < 4096; ++i) {
    auto [role, text] = stream.Next();
    requests.push_back({role, std::move(text)});
  }
  smoqe::policy::RoleCatalogOptions catalog_options;
  catalog_options.role_capacity = kRoleCapacity;
  RoleCatalog catalog(policy, s->tree, nullptr, catalog_options);
  layers.replay =
      RunReplay(s->tree, s->plane, nullptr, &catalog, requests,
                MeanBatch(layers.traced.stats), args.seconds / 4, tracer);
  std::vector<Request> again(
      requests.begin() +
          (layers.replay.queries > 64 ? layers.replay.queries - 64 : 0),
      requests.begin() + layers.replay.queries);
  Replay hits = RunReplay(s->tree, s->plane, nullptr, &catalog, again, 1,
                          kInf, tracer);
  layers.replay.hit_us.insert(layers.replay.hit_us.end(), hits.hit_us.begin(),
                              hits.hit_us.end());
  WriteResult writes = DurableWritePhase(s->tree, (work / "writes").string(),
                                         args.seed, sigma, mix, report);
  CountWrites(writes, report);
  layers.writes = writes;
  layers.store = RunStoreProbe(s->tree, (work / "store").string(), args.seed,
                               tracer, report);
  ReportLayers(layers, report);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace smoqebench

int main(int argc, char** argv) {
  using namespace smoqebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload view_hot|tenant_cold --seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const fs::path work = fs::path(args.work_dir) /
                        (args.workload + "-" + std::to_string(args.seed) +
                         "-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work, ec);
  if (ec) Die("cannot create " + work.string());

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  Report report;
  std::printf("workload %s seed %llu seconds %.1f trace %d nproc %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, Nproc());
  if (args.workload == "view_hot") {
    RunViewHot(args, work, t, &report);
  } else if (args.workload == "tenant_cold") {
    RunTenantCold(args, work, t, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  fs::remove_all(work, ec);
  if (t != nullptr && !args.trace_out.empty()) {
    fs::create_directories(fs::path(args.trace_out).parent_path(), ec);
    if (!tracer.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    } else {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  args.trace_out.c_str());
    }
  }
  const double failed_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 0.0;
  std::printf("failed_frac: %.6f (%lld of %lld attempted)\n", failed_frac,
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  std::printf("%s\n", ResultLine(report.correct, std::max<int64_t>(1, report.attempted),
                                 report.failed, report.metrics)
                          .c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
