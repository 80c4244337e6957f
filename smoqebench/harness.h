// Workload-independent pieces of the serving benchmark: latency statistics,
// a closed-loop load generator, an in-memory span recorder, and the
// process's resident set. Nothing here knows
// about SMOQE; the self-test binary exercises each piece against fakes.
#ifndef SMOQEBENCH_HARNESS_H_
#define SMOQEBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace smoqebench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, reported only when
/// at least `min_beyond` samples lie strictly beyond the rank: with fewer,
/// the tail is a handful of observations and the value is not a percentile
/// anyone should gate on.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 int min_beyond = 10);

double Median(std::vector<double> samples);

/// One completed request as the load generator saw it.
struct Sample {
  double latency_ms = 0;  // Submit -> ready
  bool ok = false;
};

/// A request the load generator can issue: returns a future that resolves to
/// whether the answer was OK (and correct, where the caller checks it).
using RequestFn = std::function<std::future<bool>(int client, int64_t seq)>;

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<double> late_ms;  // client turnaround
  double seconds = 0;           // measured window
};

/// Closed loop: `clients` threads each keep `inflight` requests outstanding
/// until `seconds` have passed, then drain. A client submits its next
/// request as soon as its oldest one resolves; latency is Submit -> ready.
/// `late_ms` records the client turnaround (resolve observed -> next
/// submit): the generator's own lateness.
LoadResult RunClosedLoop(int clients, int inflight, double seconds,
                         const RequestFn& request);

/// In-memory span recorder. Spans carry name, start, end, parent and
/// request id; they are kept in memory and written out at exit. A null
/// Tracer* everywhere means "untraced".
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root span
    int64_t request = -1;
  };

  /// Opens a span and returns its id; close it with End().
  int64_t Begin(std::string name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);

  /// Per span (indexed like spans()): its duration minus the part of it
  /// that its children cover.
  std::vector<int64_t> SelfNs() const;

  std::vector<Span> spans() const;
  /// JSON array of spans with their self time.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Now() const;

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent = -1,
             int64_t request = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1
                              : tracer->Begin(std::move(name), parent,
                                              request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Returns freed heap memory to the kernel and restarts the peak resident
/// set (VmHWM) at the current resident set, so a later PeakRssMb() covers
/// only what came after. False when the kernel refused the reset.
bool ResetPeakRss();

/// The benchmark's result line: the last line of standard output.
struct Metric {
  double value = 0;
  std::string unit;
};
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<std::pair<std::string, Metric>>&
                           metrics);

}  // namespace smoqebench

#endif  // SMOQEBENCH_HARNESS_H_
