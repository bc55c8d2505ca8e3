// Benchmark harness:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scenarios DIR]
//
// Every run executes all four workload groups, so every metric is present
// in every result. The group named by --workload gets 40% of the --seconds
// budget and the other three groups 20% each. Each group is set up three
// times; setup_s is the sum over groups of the median set-up cost in
// process CPU seconds (steal-free, unlike wall time on a shared host). With
// --trace 0 the last stdout line carries the end-to-end metrics, with
// --trace 1 the per-layer metrics, which the groups time from outside the
// library's public calls.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <unistd.h>

#include "common.hpp"
#include "platform/affinity.hpp"

namespace {

using namespace perfbench;

constexpr double kFocusShare = 0.4;
constexpr int kSetupReps = 3;

struct Workload {
  const char* name;
  std::unique_ptr<Group> (*make)(const Ctx&);
};
const Workload kWorkloads[] = {
    {"paper-dynamic", make_paper_dynamic},
    {"sim-scale", make_sim_scale},
    {"rt-dispatch", make_rt_dispatch},
    {"service-net", make_service_net},
};
constexpr int kNumWorkloads = 4;

/// Seconds the hypervisor took from this machine's CPUs since boot, summed
/// over CPUs (/proc/stat); 0 where the counter is unavailable. Reported in
/// the info line so a run slowed by a contended host can be recognised.
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) in >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "error: " << msg
            << "\nusage: perfbench --workload paper-dynamic|sim-scale|"
               "rt-dispatch|service-net --seed N --seconds S --trace 0|1 "
               "[--scenarios DIR]\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  std::string workload, scenarios = "perfbench/scenarios";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") workload = val;
      else if (key == "--seed") seed = std::stoll(val);
      else if (key == "--seconds") seconds = std::stod(val);
      else if (key == "--trace") trace = std::stoi(val);
      else if (key == "--scenarios") scenarios = val;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value '" + val + "' for " + key);
    }
  }
  int focus = -1;
  for (int w = 0; w < kNumWorkloads; ++w)
    if (workload == kWorkloads[w].name) focus = w;
  if (focus < 0) usage("unknown --workload '" + workload + "'");
  if (seed < 0) usage("--seed must be a non-negative integer");
  if (!(seconds > 0.0 && seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");

  Checks checks;
  Ctx ctx;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.trace = trace == 1;
  ctx.threads = std::max(1, std::min(4, das::allowed_cpu_count()));
  ctx.scenarios_dir = scenarios;
  ctx.checks = &checks;
  if (ctx.threads < 2) {
    std::cerr << "error: the service-net workload needs at least 2 CPUs\n";
    return 1;
  }

  Metrics m;
  double setup_s = 0.0, setup_wall_s = 0.0;
  const double steal0 = steal_s();
  std::string info;
  for (int w = 0; w < kNumWorkloads; ++w) {
    const double g0 = now_s();
    std::unique_ptr<Group> g;
    std::vector<double> setups, walls;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      g.reset();  // one group's inputs in memory at a time
      g = kWorkloads[w].make(ctx);
      const double c0 = process_cpu_s(), t0 = now_s();
      g->setup();
      setups.push_back(process_cpu_s() - c0);
      walls.push_back(now_s() - t0);
    }
    setup_s += median(setups);
    setup_wall_s += median(walls);
    const double share = w == focus ? kFocusShare
                                    : (1.0 - kFocusShare) / (kNumWorkloads - 1);
    g->run(seconds * share);
    g->report(m);
    for (const auto& [name, n] : g->threads())
      info += ", \"" + name + "\": " + std::to_string(n);
    char sec[128];
    std::snprintf(sec, sizeof sec, ", \"%s_s\": %.3f, \"%s_setup_cpu_s\": %.3f",
                  kWorkloads[w].name, now_s() - g0, kWorkloads[w].name,
                  median(setups));
    info += sec;
  }
  if (!ctx.trace) m.set("setup_s", setup_s, "s");

  for (const Metrics::Entry& e : m.entries()) {
    if (!std::isfinite(e.value)) {
      std::cerr << "error: metric " << e.name << " is not finite\n";
      return 1;
    }
  }
  for (const std::string& f : checks.first_failures)
    std::cerr << "check failed: " << f << "\n";

  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %lld, \"nproc\": %d, "
      "\"thread_cap\": %d%s, \"setup_wall_s\": %.3f, \"steal_s\": %.2f}}\n",
      workload.c_str(), seed, das::allowed_cpu_count(), ctx.threads,
      info.c_str(), setup_wall_s, steal_s() - steal0);
  std::string out = "{\"correct\": ";
  out += checks.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < m.entries().size(); ++i) {
    const Metrics::Entry& e = m.entries()[i];
    std::snprintf(num, sizeof num, "%.17g", e.value);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
