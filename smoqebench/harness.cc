#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <malloc.h>
#include <sstream>
#include <thread>

namespace smoqebench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::optional<double> Percentile(std::vector<double> samples, double q,
                                 int min_beyond) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  // Nearest rank, 1-based: the smallest k with k/n >= q.
  const int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double hi = samples[mid];
  const double lo = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lo + hi) / 2;
}

LoadResult RunClosedLoop(int clients, int inflight, double seconds,
                         const RequestFn& request) {
  struct Outstanding {
    std::future<bool> done;
    Clock::time_point submitted;
  };
  std::vector<LoadResult> per_client(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per_client[c];
      std::deque<Outstanding> window;
      int64_t seq = 0;
      for (int i = 0; i < inflight; ++i) {
        Clock::time_point t = Clock::now();
        window.push_back({request(c, seq++), t});
      }
      while (!window.empty()) {
        Outstanding head = std::move(window.front());
        window.pop_front();
        const bool ok = head.done.get();
        const Clock::time_point ready = Clock::now();
        out.samples.push_back({MsBetween(head.submitted, ready), ok});
        if (ready < stop) {
          Clock::time_point t = Clock::now();
          out.late_ms.push_back(MsBetween(ready, t));
          window.push_back({request(c, seq++), t});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult merged;
  merged.seconds = MsBetween(start, Clock::now()) / 1000.0;
  for (LoadResult& r : per_client) {
    merged.samples.insert(merged.samples.end(), r.samples.begin(),
                          r.samples.end());
    merged.late_ms.insert(merged.late_ms.end(), r.late_ms.begin(),
                          r.late_ms.end());
  }
  return merged;
}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t request) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> Tracer::SelfNs() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    // Children may overlap (parallel work); subtract their union, clipped
    // to the parent's interval.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, all[i].start_ns);
      hi = std::min(hi, all[i].end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (all[i].end_ns - all[i].start_ns) - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfNs();
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5 = reset the peak resident set
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

std::string ResultLine(
    bool correct, int64_t attempted, int64_t failed,
    const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; an unbounded value (a latency percentile that
    // lands on failed requests) prints as the largest finite double.
    const double v = std::isfinite(metrics[i].second.value)
                         ? metrics[i].second.value
                         : std::numeric_limits<double>::max();
    out << (i ? ", " : "") << "\"" << metrics[i].first
        << "\": {\"value\": " << v << ", \"unit\": \""
        << metrics[i].second.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace smoqebench
