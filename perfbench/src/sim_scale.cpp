// sim-scale: the DES's own host speed. A 1M-task empty-kernel balanced
// layered DAG on one 64-core rank, and the same shape split over 4 ranks
// with halo edges, simulated with des_threads=4 (a serial-window replay
// checks it).
// RWS and fixed costs keep the policy and the PTT nearly idle, so this
// workload moves with the event queue, steal bitmaps and window sync only.

#include <limits>
#include <optional>

#include "common.hpp"
#include "kernels/cost_models.hpp"
#include "sim/engine.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

constexpr int kTasks = 1'000'000;
constexpr int kCoresPerRank = 64;
constexpr int kRanks = 4;
constexpr int kWarmTasks = 64'000;  // warm-up jobs: same shapes, smaller
constexpr double kHaloDelayS = 30e-6;

/// Per rank, a critical chain of `width`-wide layers; each layer's critical
/// task also releases the next layer's critical task on the neighbouring
/// ranks through a delayed edge (the heat band-decomposition shape), so the
/// window protocol has boundary traffic in every window.
Dag make_halo_dag(TaskTypeId type, int ranks, int total_tasks, int width) {
  Dag dag;
  const int layers = std::max(1, total_tasks / ranks / width);
  std::vector<NodeId> prev(static_cast<std::size_t>(ranks), kInvalidNode);
  std::vector<NodeId> cur(static_cast<std::size_t>(ranks), kInvalidNode);
  for (int l = 0; l < layers; ++l) {
    for (int r = 0; r < ranks; ++r) {
      for (int p = 0; p < width; ++p) {
        const NodeId id =
            dag.add_node(type, p == 0 ? Priority::kHigh : Priority::kLow);
        dag.node(id).rank = r;
        if (p == 0) cur[static_cast<std::size_t>(r)] = id;
        if (l > 0) dag.add_edge(prev[static_cast<std::size_t>(r)], id);
      }
      if (l > 0) {
        const NodeId head = cur[static_cast<std::size_t>(r)];
        for (const int nb : {r - 1, r + 1})
          if (nb >= 0 && nb < ranks)
            dag.add_edge(prev[static_cast<std::size_t>(nb)], head,
                         kHaloDelayS);
      }
    }
    prev.swap(cur);
  }
  dag.seal();
  return dag;
}

std::int64_t tasks_done(sim::SimEngine& eng) {
  std::int64_t n = 0;
  for (int r = 0; r < eng.num_ranks(); ++r) n += eng.stats(r).tasks_total();
  return n;
}

class SimScale final : public Group {
 public:
  explicit SimScale(const Ctx& ctx)
      : ctx_(ctx), topo_(Topology::symmetric(kCoresPerRank / 8, 8)) {}

  void setup() override {
    const TaskTypeId empty =
        reg_.register_type("empty", kernels::fixed_cost(1e-9));
    workloads::SyntheticDagSpec spec;
    spec.type = empty;
    spec.parallelism = kCoresPerRank;
    spec.total_tasks = kTasks;
    dag1_ = workloads::make_synthetic_dag(spec);
    dag4_ = make_halo_dag(empty, kRanks, kTasks, kCoresPerRank);
    spec.total_tasks = kWarmTasks;
    warm1_ = workloads::make_synthetic_dag(spec);
    warm4_ = make_halo_dag(empty, kRanks, kWarmTasks, kCoresPerRank);

    sim::SimOptions opts;
    opts.seed = ctx_.seed;
    one_.emplace(topo_, Policy::kRws, reg_, opts);
    // Trace hashing stays on for the timed multi-rank engine so the
    // serial-window replay in run() can compare against it.
    opts.hash_traces = true;
    des_threads_ = std::min(kRanks, ctx_.threads);
    opts.des_threads = des_threads_;
    parallel_.emplace(ranks(), Policy::kRws, reg_, opts);

    // Warm-up: one unmeasured job per engine.
    (void)run_one(warm1_);
    (void)run_parallel(warm4_);
  }

  void run(double budget_s) override {
    const double t_end = now_s() + budget_s;
    do {
      const double w1 = run_one(dag1_);
      eps1_.push_back(last_events1_ / w1);
      const double wp = run_parallel(dag4_);
      if (wallp_.empty()) first_ = fingerprint(*parallel_, last_makespan_);
      epsp_.push_back(last_eventsp_ / wp);
      wallp_.push_back(wp);
    } while (now_s() < t_end);
    serial_replay();
    if (ctx_.trace) step_probe();
  }

  void report(Metrics& m) override {
    if (!ctx_.trace) return;
    m.set("sim.events_per_s", median(eps1_), "1/s");
    m.set("sim.pdes_events_per_s", median(epsp_), "1/s");
    m.set("sim.events_per_task", last_events1_ / dag1_.num_nodes(), "count");
    m.set("sim.pdes_speedup", serial_wall_s_ / median(wallp_), "ratio");
    m.set("sim.event_ns_p50", event_ns_p50_, "ns");
    m.set("sim.event_ns_p99", event_ns_p99_, "ns");
    m.set("sim.windows", windows_, "count");
    m.set("sim.events_per_window", events_per_window_, "count");
    m.set("sim.window_us_p50", window_us_p50_, "us");
    m.set("sim.rank_imbalance", rank_imbalance_, "ratio");
  }

  std::vector<std::pair<std::string, int>> threads() const override {
    return {{"des_threads", des_threads_}};
  }

 private:
  /// Single-rank job; returns its wall seconds.
  double run_one(const Dag& dag) {
    const std::uint64_t e0 = one_->events_processed();
    const std::int64_t d0 = tasks_done(*one_);
    const std::int64_t t0 = now_ns();
    const double makespan = one_->run(dag);
    const double wall = ns_to_s(now_ns() - t0);
    last_events1_ = static_cast<double>(one_->events_processed() - e0);
    ctx_.checks->job(
        makespan > 0.0 && tasks_done(*one_) - d0 == dag.num_nodes(),
        "sim-scale single-rank job");
    return wall;
  }

  std::vector<sim::RankSpec> ranks() const {
    return std::vector<sim::RankSpec>(kRanks, sim::RankSpec{&topo_});
  }

  /// What two bitwise-identical multi-rank runs share.
  struct Fingerprint {
    double makespan_s = 0.0;
    std::vector<std::uint64_t> hash, events;
    bool operator==(const Fingerprint&) const = default;
  };
  static Fingerprint fingerprint(const sim::SimEngine& eng, double makespan_s) {
    Fingerprint f;
    f.makespan_s = makespan_s;
    for (int r = 0; r < kRanks; ++r) {
      f.hash.push_back(eng.trace_hash(r));
      f.events.push_back(eng.events_processed(r));
    }
    return f;
  }

  /// One 4-rank job on the des_threads engine; returns its wall seconds.
  double run_parallel(const Dag& dag) {
    const std::uint64_t e0 = parallel_->events_processed();
    const std::int64_t d0 = tasks_done(*parallel_);
    const std::int64_t t0 = now_ns();
    last_makespan_ = parallel_->run(dag);
    const double wall = ns_to_s(now_ns() - t0);
    last_eventsp_ = static_cast<double>(parallel_->events_processed() - e0);
    ctx_.checks->job(last_makespan_ > 0.0 &&
                         tasks_done(*parallel_) - d0 == dag.num_nodes(),
                     "sim-scale des_threads job");
    return wall;
  }

  /// Replays the timed engine's warm-up and first timed job with serial
  /// windows on a fresh engine: makespan, per-rank trace hashes and event
  /// counts must agree.
  void serial_replay() {
    sim::SimOptions opts;
    opts.seed = ctx_.seed;
    opts.hash_traces = true;
    opts.des_threads = 1;
    sim::SimEngine serial(ranks(), Policy::kRws, reg_, opts);
    (void)serial.run(warm4_);
    const std::int64_t t0 = now_ns();
    const double makespan = serial.run(dag4_);
    serial_wall_s_ = ns_to_s(now_ns() - t0);
    ctx_.checks->job(fingerprint(serial, makespan) == first_ &&
                         tasks_done(serial) ==
                             warm4_.num_nodes() + dag4_.num_nodes(),
                     "sim-scale serial vs des_threads replay");
  }

  /// Single-rank and multi-rank jobs stepped through pump_one(): one event
  /// per call on one rank, one conservative window per call on four.
  void step_probe() {
    {
      const std::int64_t d0 = tasks_done(*one_);
      const JobId id = one_->submit(dag1_);
      std::vector<double> ns;
      ns.reserve(static_cast<std::size_t>(last_events1_) + 16);
      for (;;) {
        const std::int64_t t0 = now_ns();
        const bool more = one_->pump_one();
        const std::int64_t t1 = now_ns();
        if (!more) break;
        ns.push_back(static_cast<double>(t1 - t0));
      }
      one_->wait(id);
      ctx_.checks->job(tasks_done(*one_) - d0 == dag1_.num_nodes(),
                       "sim-scale stepped single-rank job");
      event_ns_p50_ = quantile(ns, 0.5);
      event_ns_p99_ = quantile(ns, 0.99);
    }
    {
      std::vector<std::uint64_t> e0(kRanks);
      for (int r = 0; r < kRanks; ++r)
        e0[static_cast<std::size_t>(r)] = parallel_->events_processed(r);
      const std::int64_t d0 = tasks_done(*parallel_);
      const JobId id = parallel_->submit(dag4_);
      std::vector<double> us;
      for (;;) {
        const std::int64_t t0 = now_ns();
        const bool more = parallel_->pump_one();
        const std::int64_t t1 = now_ns();
        if (!more) break;
        us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
      parallel_->wait(id);
      ctx_.checks->job(tasks_done(*parallel_) - d0 == dag4_.num_nodes(),
                       "sim-scale stepped multi-rank job");
      double events = 0.0, hi = 0.0;
      double lo = std::numeric_limits<double>::infinity();
      for (int r = 0; r < kRanks; ++r) {
        const double e = static_cast<double>(
            parallel_->events_processed(r) - e0[static_cast<std::size_t>(r)]);
        events += e;
        lo = std::min(lo, e);
        hi = std::max(hi, e);
      }
      windows_ = static_cast<double>(us.size());
      events_per_window_ = events / windows_;
      window_us_p50_ = quantile(us, 0.5);
      rank_imbalance_ = hi / lo;
    }
  }

  Ctx ctx_;
  Topology topo_;
  TaskTypeRegistry reg_;
  Dag dag1_, dag4_;    ///< the timed shapes
  Dag warm1_, warm4_;  ///< their warm-up jobs
  std::optional<sim::SimEngine> one_;
  std::optional<sim::SimEngine> parallel_;
  int des_threads_ = 1;
  double last_events1_ = 0.0;
  double last_eventsp_ = 0.0;
  double last_makespan_ = 0.0;
  double serial_wall_s_ = 0.0;
  Fingerprint first_;
  std::vector<double> eps1_, epsp_, wallp_;
  double event_ns_p50_ = 0.0, event_ns_p99_ = 0.0;
  double windows_ = 0.0, events_per_window_ = 0.0, window_us_p50_ = 0.0;
  double rank_imbalance_ = 0.0;
};

}  // namespace

std::unique_ptr<Group> make_sim_scale(const Ctx& ctx) {
  return std::make_unique<SimScale>(ctx);
}

}  // namespace perfbench
