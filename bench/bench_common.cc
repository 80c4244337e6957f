#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "automata/compiler.h"
#include "automata/conceptual_eval.h"
#include "eval/galax_substitute.h"
#include "eval/xpath_baseline.h"
#include "gen/hospital_generator.h"
#include "xpath/parser.h"

namespace smoqe::bench {

const char* EngineName(Engine e) {
  switch (e) {
    case kJaxp: return "JAXP";
    case kHype: return "HyPE";
    case kOptHype: return "OptHyPE";
    case kOptHypeC: return "OptHyPE-C";
    case kGalax: return "GALAX";
    case kConceptual: return "Conceptual";
  }
  return "?";
}

double Seconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double BestSecondsPerRound(const std::function<void()>& fn,
                           double sample_seconds) {
  double once = Seconds(fn);
  int rounds =
      std::max(1, static_cast<int>(sample_seconds / std::max(once, 1e-9)));
  double best = 1e100;
  for (int r = 0; r < 5; ++r) {
    double t = Seconds([&] {
      for (int k = 0; k < rounds; ++k) fn();
    });
    best = std::min(best, t / rounds);
  }
  return best;
}

int BasePatients() {
  static int base = [] {
    const char* env = std::getenv("SMOQE_BENCH_PATIENTS");
    int v = env != nullptr ? std::atoi(env) : 0;
    return v > 0 ? v : 200;
  }();
  return base;
}

const xml::Tree& HospitalDoc(int patients) {
  static auto* cache = new std::map<int, std::unique_ptr<xml::Tree>>();
  auto it = cache->find(patients);
  if (it == cache->end()) {
    gen::HospitalParams params;
    params.patients = patients;
    params.seed = 4242;
    params.heart_disease_prob = 0.1;
    it = cache
             ->emplace(patients,
                       std::make_unique<xml::Tree>(GenerateHospital(params)))
             .first;
  }
  return *it->second;
}

const hype::SubtreeLabelIndex& IndexFor(const xml::Tree& tree,
                                        hype::SubtreeLabelIndex::Mode mode) {
  static auto* cache = new std::map<std::pair<const xml::Tree*, int>,
                                    std::unique_ptr<hype::SubtreeLabelIndex>>();
  auto key = std::make_pair(&tree, static_cast<int>(mode));
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache
             ->emplace(key, std::make_unique<hype::SubtreeLabelIndex>(
                                hype::SubtreeLabelIndex::Build(
                                    PlaneFor(tree), mode)))
             .first;
  }
  return *it->second;
}

const xml::DocPlane& PlaneFor(const xml::Tree& tree) {
  static auto* cache =
      new std::map<const xml::Tree*, std::unique_ptr<xml::DocPlane>>();
  auto it = cache->find(&tree);
  if (it == cache->end()) {
    it = cache
             ->emplace(&tree,
                       std::make_unique<xml::DocPlane>(xml::DocPlane::Build(tree)))
             .first;
  }
  return *it->second;
}

namespace {

const automata::Mfa& CompiledQuery(const std::string& query) {
  static auto* cache = new std::map<std::string, std::unique_ptr<automata::Mfa>>();
  auto it = cache->find(query);
  if (it == cache->end()) {
    auto q = xpath::ParseQuery(query);
    if (!q.ok()) throw std::runtime_error("bad bench query: " + query);
    it = cache
             ->emplace(query, std::make_unique<automata::Mfa>(
                                  automata::CompileQuery(q.value())))
             .first;
  }
  return *it->second;
}

const xpath::PathPtr& ParsedQuery(const std::string& query) {
  static auto* cache = new std::map<std::string, xpath::PathPtr>();
  auto it = cache->find(query);
  if (it == cache->end()) {
    auto q = xpath::ParseQuery(query);
    if (!q.ok()) throw std::runtime_error("bad bench query: " + query);
    it = cache->emplace(query, q.value()).first;
  }
  return it->second;
}

}  // namespace

int64_t RunEngineOnce(Engine engine, const std::string& query,
                      const xml::Tree& tree, hype::EvalStats* stats) {
  switch (engine) {
    case kJaxp: {
      eval::XPathBaseline baseline(tree);
      auto result = baseline.Eval(ParsedQuery(query), tree.root());
      if (!result.ok()) throw std::runtime_error(result.status().ToString());
      return static_cast<int64_t>(result.value().size());
    }
    case kGalax: {
      eval::GalaxSubstitute galax(tree);
      return static_cast<int64_t>(galax.Eval(ParsedQuery(query), tree.root()).size());
    }
    case kConceptual: {
      automata::ConceptualEvaluator eval(tree, CompiledQuery(query));
      return static_cast<int64_t>(eval.Eval(tree.root()).size());
    }
    case kHype:
    case kOptHype:
    case kOptHypeC: {
      hype::EvalOptions options;
      options.plane = &PlaneFor(tree);  // shared; evaluators are per-call
      if (engine == kOptHype) {
        options.index = &IndexFor(tree, hype::SubtreeLabelIndex::Mode::kFull);
      } else if (engine == kOptHypeC) {
        options.index =
            &IndexFor(tree, hype::SubtreeLabelIndex::Mode::kCompressed);
      }
      hype::HypeEvaluator eval(tree, CompiledQuery(query), options);
      int64_t n = static_cast<int64_t>(eval.Eval(tree.root()).size());
      if (stats != nullptr) *stats = eval.stats();
      return n;
    }
  }
  return 0;
}

void RegisterFigure(const std::string& figure, const std::string& query,
                    std::initializer_list<Engine> engines) {
  for (Engine engine : engines) {
    std::string name = figure + "/" + EngineName(engine);
    auto* b = benchmark::RegisterBenchmark(
        name.c_str(),
        [query, engine](benchmark::State& state) {
          const xml::Tree& tree = HospitalDoc(static_cast<int>(state.range(0)));
          // Warm the per-document caches (index construction is a one-time
          // cost, reported separately in EXPERIMENTS.md).
          hype::EvalStats stats;
          int64_t answers = RunEngineOnce(engine, query, tree, &stats);
          for (auto _ : state) {
            benchmark::DoNotOptimize(RunEngineOnce(engine, query, tree));
          }
          state.counters["answers"] = static_cast<double>(answers);
          state.counters["elem"] = static_cast<double>(tree.CountElements());
          state.counters["MB"] =
              static_cast<double>(tree.ApproxByteSize()) / 1e6;
          if (engine == kHype || engine == kOptHype || engine == kOptHypeC) {
            state.counters["pruned_pct"] = 100.0 * stats.PrunedFraction();
          }
        });
    b->ArgName("patients")->Unit(benchmark::kMillisecond);
    for (int i = 1; i <= 10; ++i) b->Arg(static_cast<int64_t>(BasePatients()) * i);
  }
}

}  // namespace smoqe::bench
