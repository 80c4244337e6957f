// Parallel serving throughput: queries/sec of the sharded shared pass
// (exec::ShardedBatchEvaluator) versus pool width 1/2/4/8, and of the full
// QueryService front-end versus concurrent client count 1..64 -- the
// serving-scenario companion to bench_throughput's single-threaded batching
// figures.
//
// Two modes:
//  * default: google-benchmark binary (Sharded/* and Service/* families);
//  * --smoqe_json=FILE: a short self-timed smoke run writing queries/sec per
//    thread count and per client count to FILE (BENCH_parallel.json in CI,
//    consumed by the bench regression gate). Every sharded timing is
//    preceded by a bit-identity check against the solo BatchHypeEvaluator;
//    a mismatch aborts the run. Combine with SMOQE_BENCH_PATIENTS to shrink
//    the document.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "exec/query_service.h"
#include "exec/sharded_eval.h"
#include "hype/batch_hype.h"
#include "xpath/parser.h"

namespace smoqe::bench {
namespace {

// The bench_throughput workload shapes, reduced to a fixed 64-query server
// mix (filters, recursion, navigation, unions) -- distinct queries, so
// neither batching nor sharding gets sharing the baseline would not have.
std::vector<std::string> MakeWorkload(int n) {
  static const char* const kCities[] = {"Edinburgh", "Istanbul", "Antwerp",
                                        "Madison"};
  static const char* const kSpecialties[] = {"cardiology", "neurology",
                                             "oncology", "pediatrics"};
  static const char* const kTemplates[] = {
      "department/patient/pname",
      "department/patient/visit/date",
      "//diagnosis",
      "//pname",
      "department/patient/visit/treatment/medication/type",
      "department/patient/(parent | sibling)/patient/visit/date",
      "department/*/pname",
      "department/patient/visit/(date | doctor/dname)",
  };
  std::vector<std::string> queries;
  int i = 0;
  while (static_cast<int>(queries.size()) < n) {
    const int round = i / 8;
    const std::string city = kCities[(i + round) % 4];
    const std::string spec = kSpecialties[(i + round) % 4];
    const std::string med = "med-" + std::to_string(1 + i % 50);
    switch (i % 8) {
      case 0:
        queries.push_back("department/patient[address/city/text() = '" + city +
                          "']" + (round % 2 == 0 ? "/pname" : "/visit/date"));
        break;
      case 1:
        queries.push_back(
            "department/patient/visit/treatment/medication[type/text() = '" +
            med + "']");
        break;
      case 2:
        queries.push_back("//doctor[specialty/text() = '" + spec + "']" +
                          std::string(round % 2 == 0 ? "" : "/dname"));
        break;
      case 3:
        queries.push_back("department/patient/(parent/patient)*"
                          "[address/city/text() = '" +
                          city + "']/pname");
        break;
      default:
        queries.push_back(kTemplates[(i + round) % 8]);
        break;
    }
    ++i;
  }
  return queries;
}

std::vector<automata::Mfa> CompileWorkload(const std::vector<std::string>& qs) {
  std::vector<automata::Mfa> mfas;
  mfas.reserve(qs.size());
  for (const std::string& q : qs) {
    auto parsed = xpath::ParseQuery(q);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad workload query %s: %s\n", q.c_str(),
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    mfas.push_back(automata::CompileQuery(parsed.value()));
  }
  return mfas;
}

// Fans `clients` threads out against `service`, each submitting
// `per_client` workload queries and collecting its futures. Returns the
// number of failed answers. Shared by the gbench family and the JSON smoke
// so both measure identical client behavior.
int RunClients(exec::QueryService& service,
               const std::vector<std::string>& workload, int clients,
               int per_client) {
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<exec::QueryService::Answer>> inflight;
      inflight.reserve(per_client);
      for (int q = 0; q < per_client; ++q) {
        inflight.push_back(service.Submit(
            workload[(c * per_client + q) % workload.size()]));
      }
      for (auto& f : inflight) {
        if (!f.get().ok()) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return errors.load();
}

// ---- google-benchmark families ----

void BM_ShardedEval(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int threads = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  std::vector<automata::Mfa> mfas = CompileWorkload(MakeWorkload(batch));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);

  common::ThreadPool pool(threads);
  exec::ShardedOptions options;
  options.plane = &PlaneFor(tree);
  options.pool = &pool;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  int64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (const auto& result : eval.EvalAll(tree.root())) {
      answers += static_cast<int64_t>(result.size());
    }
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["units"] = static_cast<double>(eval.stats().num_units);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}

void BM_SoloBaseline(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int batch = static_cast<int>(state.range(0));
  std::vector<automata::Mfa> mfas = CompileWorkload(MakeWorkload(batch));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);
  hype::EvalOptions options;
  options.plane = &PlaneFor(tree);
  hype::BatchHypeEvaluator eval(tree, ptrs, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}

void BM_Service(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int clients = static_cast<int>(state.range(0));
  const std::vector<std::string> workload = MakeWorkload(64);
  exec::QueryServiceOptions options;
  options.plane = &PlaneFor(tree);
  options.max_batch = 16;
  exec::QueryService service(tree, options);
  constexpr int kQueriesPerClient = 16;

  for (auto _ : state) {
    if (RunClients(service, workload, clients, kQueriesPerClient) != 0) {
      state.SkipWithError("service returned errors");
      break;
    }
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * clients * kQueriesPerClient,
      benchmark::Counter::kIsRate);
}

void RegisterAll() {
  auto* sharded =
      benchmark::RegisterBenchmark("Sharded/Eval", BM_ShardedEval);
  sharded->ArgNames({"threads", "batch"})->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (int threads : {1, 2, 4, 8}) sharded->Args({threads, 64});

  auto* solo = benchmark::RegisterBenchmark("Sharded/SoloBaseline",
                                            BM_SoloBaseline);
  solo->ArgNames({"batch"})->Unit(benchmark::kMillisecond);
  solo->Args({64});

  auto* service = benchmark::RegisterBenchmark("Service/Clients", BM_Service);
  service->ArgNames({"clients"})->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (int clients : {1, 4, 16, 64}) service->Args({clients});
}

// ---- --smoqe_json smoke mode ----

int WriteJsonSmoke(const std::string& path) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  constexpr int kBatch = 64;
  const std::vector<std::string> workload = MakeWorkload(kBatch);
  std::vector<automata::Mfa> mfas = CompileWorkload(workload);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);

  // Solo baseline: the single-threaded batched pass.
  hype::EvalOptions solo_options;
  solo_options.plane = &PlaneFor(tree);
  hype::BatchHypeEvaluator solo(tree, ptrs, solo_options);
  std::vector<std::vector<xml::NodeId>> expected = solo.EvalAll(tree.root());
  double solo_qps = kBatch / BestSecondsPerRound([&] {
    benchmark::DoNotOptimize(solo.EvalAll(tree.root()));
  });

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"patients\": %d,\n  \"elements\": %d,\n"
               "  \"hardware_threads\": %d,\n  \"batch\": %d,\n"
               "  \"solo_qps\": %.1f,\n  \"sharded\": [\n",
               BasePatients(), tree.CountElements(),
               common::ThreadPool::HardwareThreads(), kBatch, solo_qps);

  bool first = true;
  for (int threads : {1, 2, 4, 8}) {
    common::ThreadPool pool(threads);
    exec::ShardedOptions options;
    options.plane = &PlaneFor(tree);
    options.pool = &pool;
    exec::ShardedBatchEvaluator eval(tree, ptrs, options);
    // Bit-identity gate before timing: the sharded pass must reproduce the
    // solo answers exactly.
    if (eval.EvalAll(tree.root()) != expected) {
      std::fprintf(stderr, "sharded/solo mismatch at %d threads\n", threads);
      std::fclose(out);
      return 1;
    }
    double qps = kBatch / BestSecondsPerRound([&] {
      benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
    });
    std::fprintf(out,
                 "%s    {\"threads\": %d, \"units\": %d, \"groups\": %d, "
                 "\"qps\": %.1f, \"speedup_vs_solo\": %.2f}",
                 first ? "" : ",\n", threads, eval.stats().num_units,
                 eval.stats().num_groups, qps, qps / solo_qps);
    first = false;
  }
  std::fprintf(out, "\n  ],\n  \"service\": [\n");

  first = true;
  for (int clients : {1, 8, 32, 64}) {
    exec::QueryServiceOptions options;
    options.plane = &PlaneFor(tree);
    options.max_batch = 16;
    exec::QueryService service(tree, options);
    constexpr int kQueriesPerClient = 8;
    std::atomic<int> errors{0};
    double secs = BestSecondsPerRound([&] {
      errors += RunClients(service, workload, clients, kQueriesPerClient);
    });
    if (errors.load() != 0) {
      std::fprintf(stderr, "service errors at %d clients\n", clients);
      std::fclose(out);
      return 1;
    }
    // Snapshot the admission/cache counters of everything this
    // configuration served: how batches closed, compile-cache efficiency,
    // same-MFA coalescing, warm-evaluator reuse, and how many batches
    // fanned out over the pool vs. how many evaluated at once.
    const exec::QueryServiceStats st = service.stats();
    std::fprintf(out,
                 "%s    {\"clients\": %d, \"qps\": %.1f, "
                 "\"batches\": %lld, \"batches_full\": %lld, "
                 "\"batches_aged\": %lld, \"cache_hits\": %lld, "
                 "\"cache_misses\": %lld, \"coalesced\": %lld, "
                 "\"evaluator_reuses\": %lld, \"fan_outs\": %lld, "
                 "\"max_active_batches\": %lld, "
                 "\"queries_timed_out\": %lld, \"queries_shed\": %lld, "
                 "\"queries_cancelled\": %lld, \"queries_retried\": %lld}",
                 first ? "" : ",\n", clients,
                 clients * kQueriesPerClient / secs,
                 static_cast<long long>(st.batches),
                 static_cast<long long>(st.batches_full),
                 static_cast<long long>(st.batches_aged),
                 static_cast<long long>(st.cache.hits),
                 static_cast<long long>(st.cache.misses),
                 static_cast<long long>(st.coalesced_duplicates),
                 static_cast<long long>(st.evaluator_reuses),
                 static_cast<long long>(st.fan_outs),
                 static_cast<long long>(st.max_active_batches),
                 static_cast<long long>(st.queries_timed_out),
                 static_cast<long long>(st.queries_shed),
                 static_cast<long long>(st.queries_cancelled),
                 static_cast<long long>(st.queries_retried));
    std::printf(
        "service clients=%d: %lld batches (%lld full, %lld aged), "
        "rewrite cache %lld hits / %lld misses, %lld coalesced, "
        "%lld evaluator reuses, %lld fanned out, %lld max active, "
        "%lld timed out / %lld shed / %lld cancelled / %lld retried\n",
        clients, static_cast<long long>(st.batches),
        static_cast<long long>(st.batches_full),
        static_cast<long long>(st.batches_aged),
        static_cast<long long>(st.cache.hits),
        static_cast<long long>(st.cache.misses),
        static_cast<long long>(st.coalesced_duplicates),
        static_cast<long long>(st.evaluator_reuses),
        static_cast<long long>(st.fan_outs),
        static_cast<long long>(st.max_active_batches),
        static_cast<long long>(st.queries_timed_out),
        static_cast<long long>(st.queries_shed),
        static_cast<long long>(st.queries_cancelled),
        static_cast<long long>(st.queries_retried));
    first = false;
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    constexpr std::string_view kJsonFlag = "--smoqe_json=";
    if (arg.substr(0, kJsonFlag.size()) == kJsonFlag) {
      return smoqe::bench::WriteJsonSmoke(
          std::string(arg.substr(kJsonFlag.size())));
    }
  }
  smoqe::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
