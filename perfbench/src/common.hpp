#pragma once
// Shared vocabulary of the benchmark harness: the per-run context, the metric
// sink, the output-check counters and the workload-group interface.
//
// A run executes every workload group, so every metric appears in every
// result; the group named by --workload gets the largest share of the time
// budget (main.cpp).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace perfbench {

/// Job accounting: every job a group runs is attempted once; it fails when
/// it did not finish ok(), ran the wrong task count, or an output check on
/// it failed.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> first_failures;  ///< a few diagnostics for stderr

  /// Records one job.
  void job(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failures.size() < 8) first_failures.push_back(what);
    }
  }
};

/// Ordered name -> (value, unit) sink, printed as the result's "metrics".
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back(Entry{name, value, unit});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

struct Ctx {
  std::uint64_t seed = 1;
  bool trace = false;
  /// Busy-thread cap: min(4, CPUs this process may run on). rt workers,
  /// World ranks and des_threads never exceed it.
  int threads = 1;
  std::string scenarios_dir;  ///< perfbench/scenarios
  Checks* checks = nullptr;
};

/// One workload's inputs, executors and timed loop.
class Group {
 public:
  virtual ~Group() = default;
  /// Builds inputs and executors and runs one unmeasured warm-up job per
  /// executor. Everything here counts toward setup_s only.
  virtual void setup() = 0;
  /// The timed loop: repeats the workload's unit until `budget_s` has
  /// passed (at least once).
  virtual void run(double budget_s) = 0;
  /// End-to-end metrics (ctx.trace == false) or per-layer metrics (true).
  virtual void report(Metrics& m) = 0;
  /// Thread counts the group used, for the run's info line.
  virtual std::vector<std::pair<std::string, int>> threads() const {
    return {};
  }
};

std::unique_ptr<Group> make_paper_dynamic(const Ctx& ctx);
std::unique_ptr<Group> make_sim_scale(const Ctx& ctx);
std::unique_ptr<Group> make_rt_dispatch(const Ctx& ctx);
std::unique_ptr<Group> make_service_net(const Ctx& ctx);

// ---- small statistics helpers ----------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; NaN on empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Seconds on the steady clock.
inline double now_s() { return das::ns_to_s(das::now_ns()); }

/// CPU seconds consumed by every thread of this process. The kernel charges
/// tasks only for time they ran, so time the hypervisor steals from the
/// virtual CPUs is not in it.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
