// Self-tests of the benchmark harness: the statistics, the seeded input
// streams, span self time and the correctness gate. Run with
//   python3 smoqebench/run.py --selftest
// Exit code 0 = every check passed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/query_service.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "harness.h"
#include "inputs.h"
#include "oracle.h"
#include "xml/parser.h"

namespace smoqebench {
namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> Iota(int n) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = i + 1;  // 1..n
  std::reverse(v.begin(), v.end());          // order must not matter
  return v;
}

void TestPercentileNeedsTenBeyond() {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  CHECK(!Percentile(Iota(999), 0.99));
  CHECK(Percentile(Iota(1000), 0.99).value_or(-1) == 990);
  CHECK(Percentile(Iota(2000), 0.99).value_or(-1) == 1980);
  CHECK(!Percentile(Iota(19), 0.50));
  CHECK(Percentile(Iota(20), 0.50).value_or(-1) == 10);
  CHECK(!Percentile({}, 0.5));
  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
}

void TestSeededStreams() {
  const std::vector<std::string> mix = ViewQueryMix(7);
  CHECK(mix == ViewQueryMix(7));
  CHECK(mix != ViewQueryMix(8));
  CHECK(std::set<std::string>(mix.begin(), mix.end()).size() == mix.size());
  CHECK(mix.size() >= 64);

  const ZipfRoles roles7(2000, 1.0, 7), roles8(2000, 1.0, 8);
  auto draw = [](const ZipfRoles& roles, uint64_t seed) {
    TenantStream s(roles, seed);
    std::vector<std::pair<smoqe::policy::RoleId, std::string>> out;
    for (int i = 0; i < 200; ++i) out.push_back(s.Next());
    return out;
  };
  CHECK(draw(roles7, 1) == draw(roles7, 1));
  CHECK(draw(roles7, 1) != draw(roles7, 2));
  CHECK(draw(roles7, 1) != draw(roles8, 1));

  // Zipf skew: the hottest role gets far more than a uniform share.
  std::mt19937_64 rng(3);
  std::vector<int> hits(2000);
  for (int i = 0; i < 20000; ++i) ++hits[roles7.Next(&rng)];
  CHECK(*std::max_element(hits.begin(), hits.end()) > 20000 / 2000 * 50);

  smoqe::gen::HospitalParams hp;
  hp.patients = 30;
  const smoqe::xml::Tree base = smoqe::gen::GenerateHospital(hp);
  auto deltas = [&](uint64_t seed) {
    smoqe::xml::Tree tree(base);
    DeltaStream stream(seed);
    std::vector<std::string> wire;
    for (uint64_t v = 0; v < 50; ++v) {
      smoqe::xml::TreeDelta d = stream.Next(tree, v);
      std::string bytes;
      d.Serialize(&bytes);
      wire.push_back(bytes);
      CHECK(d.ApplyTo(&tree).ok());
    }
    CHECK(tree.CountElements() == base.CountElements());  // size-preserving
    return wire;
  };
  CHECK(deltas(5) == deltas(5));
  CHECK(deltas(5) != deltas(6));
}

void TestTracerSelfTime() {
  Tracer t;
  const int64_t parent = t.Begin("parent");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const int64_t child = t.Begin("child", parent);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.End(child);
  t.End(parent);
  const std::vector<int64_t> self = t.SelfNs();
  CHECK(self.size() == 2);
  if (self.size() != 2) return;
  CHECK(self[parent] >= 4'000'000 && self[parent] < 15'000'000);
  CHECK(self[child] >= 19'000'000);
}

void TestGateRejectsCorruptedAnswer() {
  smoqe::gen::HospitalParams hp;
  hp.patients = 60;
  const smoqe::xml::Tree tree = smoqe::gen::GenerateHospital(hp);
  const smoqe::view::ViewDef sigma = smoqe::gen::HospitalView();
  const std::vector<std::string> mix = ViewQueryMix(1);
  smoqe::exec::QueryServiceOptions options;
  options.view = &sigma;
  options.num_threads = 2;
  smoqe::exec::QueryService service(tree, options);
  std::vector<NodeSet> served;
  for (const std::string& q : mix) {
    auto a = service.Query(q);
    CHECK(a.ok());
    served.push_back(a.ok() ? a.value() : NodeSet{});
  }
  auto oracle = ViewOracle::Make(sigma, tree);
  CHECK(oracle.ok());
  if (!oracle.ok()) return;
  CHECK(CheckAnswers(oracle.value(), mix, served).empty());

  size_t victim = 0;
  while (victim < served.size() && served[victim].empty()) ++victim;
  CHECK(victim < served.size());
  if (victim == served.size()) return;
  std::vector<NodeSet> dropped = served;
  dropped[victim].pop_back();
  CHECK(CheckAnswers(oracle.value(), mix, dropped).size() == 1);
  std::vector<NodeSet> shifted = served;
  shifted[victim].back() += 1;
  CHECK(CheckAnswers(oracle.value(), mix, shifted).size() == 1);
}

}  // namespace
}  // namespace smoqebench

int main() {
  using namespace smoqebench;
  TestPercentileNeedsTenBeyond();
  TestSeededStreams();
  TestTracerSelfTime();
  TestGateRejectsCorruptedAnswer();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all harness self-tests passed\n");
  return 0;
}
