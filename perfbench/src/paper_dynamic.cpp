// paper-dynamic: the paper's own experiment in the DES. Every Table-1 policy
// runs the matmul, copy and stencil layered DAGs at paper size on the TX2
// model under five dynamic scenarios, plus the Fig. 10 shape (distributed
// heat on 4 Haswell ranks, interference on node 0). Virtual makespans are
// deterministic, so they compare exactly between commits; the host time the
// DES spends on them is the wall-clock side.

#include <limits>
#include <optional>

#include "common.hpp"
#include "core/cost_expr.hpp"
#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "workloads/heat.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

constexpr int kParallelism = 4;
constexpr int kHeatIterations = 20;
const char* const kScenarioNames[] = {"interference-burst", "dvfs-wave",
                                      "phase-flip", "random-churn",
                                      "fail-stop"};

/// Smallest core-seconds any place can spend on `n` when every core runs
/// at its cluster's base speed with the whole memory bandwidth: the sum of
/// the participants' costs, minimised over places.
double min_core_seconds(const TaskTypeRegistry& reg, const Topology& topo,
                        const DagNode& n) {
  const TaskTypeInfo& info = reg.info(n.type);
  double best = std::numeric_limits<double>::infinity();
  for (const ExecutionPlace& p : topo.places()) {
    double sum = 0.0;
    for (int i = 0; i < p.width; ++i) {
      const int core = p.leader + i;
      const Cluster& cl = topo.cluster_of_core(core);
      CostQuery q;
      q.place = p;
      q.rank = i;
      q.core = core;
      q.speed = cl.base_speed;
      q.bw_share = 1.0;
      q.cluster = &cl;
      sum += cost_eval(info, n.params, q);
    }
    best = std::min(best, sum);
  }
  return best;
}

/// Analytic makespan floor: total minimal work over the core count.
double work_lower_bound(const TaskTypeRegistry& reg, const Dag& dag,
                        const Topology& topo, int ranks) {
  double total = 0.0;
  TaskTypeId last_type = kInvalidTaskType;
  TaskParams last_params{};
  double last_cost = 0.0;
  for (NodeId id = 0; id < dag.num_nodes(); ++id) {
    const DagNode& n = dag.node(id);
    if (n.type != last_type || n.params.p0 != last_params.p0 ||
        n.params.p1 != last_params.p1 || n.params.p2 != last_params.p2) {
      last_type = n.type;
      last_params = n.params;
      last_cost = min_core_seconds(reg, topo, n);
    }
    total += last_cost;
  }
  return total / static_cast<double>(topo.num_cores() * ranks);
}

class PaperDynamic final : public Group {
 public:
  explicit PaperDynamic(const Ctx& ctx)
      : ctx_(ctx), tx2_(Topology::tx2()), haswell_(Topology::haswell20()) {}

  void setup() override {
    ids_ = kernels::register_paper_kernels(reg_);
    const workloads::SyntheticDagSpec specs[] = {
        workloads::paper_matmul_spec(ids_.matmul, kParallelism),
        workloads::paper_copy_spec(ids_.copy, kParallelism),
        workloads::paper_stencil_spec(ids_.stencil, kParallelism)};
    for (const auto& s : specs) {
      Input in;
      in.dag = workloads::make_synthetic_dag(s);
      in.type = s.type;
      in.params = s.params;
      in.bound_s = work_lower_bound(reg_, in.dag, tx2_, 1);
      inputs_.push_back(std::move(in));
    }
    for (const char* name : kScenarioNames) {
      scenario::ScenarioSpec spec = *scenario::find_catalog(name);
      // The churn draw is an input: it follows the run's seed.
      for (auto& c : spec.churn) c.seed = ctx_.seed;
      models_.push_back(scenario::build(spec, tx2_));
      specs_.push_back(std::move(spec));
    }

    workloads::HeatConfig hc;
    hc.rows = 2048;
    hc.cols = 8192;
    hc.ranks = 4;
    hc.iterations = kHeatIterations;
    hc.tasks_per_rank = 8;
    heat_.dag = workloads::make_heat_sim_dag(hc, ids_.heat_compute, ids_.comm);
    heat_.bound_s = work_lower_bound(reg_, heat_.dag, haswell_, hc.ranks);
    heat_scenario_.emplace(scenario::build(
        scenario::load(ctx_.scenarios_dir + "/heat-node0-interference.json"),
        haswell_));

    for (Policy p : all_policies()) {
      for (int i = 0; i < static_cast<int>(inputs_.size()); ++i)
        for (int s = 0; s < static_cast<int>(specs_.size()); ++s)
          cells_.push_back(Cell{p, i, s});
      cells_.push_back(Cell{p, -1, -1});
    }
    // Warm-up: one unmeasured job through the executor path.
    auto exec = make_cell_executor(cells_.front());
    Input& in = input_of(cells_.front());
    const RunResult r = exec->run(in.dag);
    ctx_.checks->job(r.ok() && r.tasks == in.dag.num_nodes(),
                     "paper-dynamic warm-up job");
  }

  void run(double budget_s) override {
    const double t_end = now_s() + budget_s;
    first_.assign(cells_.size(), Outcome{});
    cell_host_s_.assign(cells_.size(), {});
    bool first_pass = true;
    do {
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        if (!first_pass && now_s() >= t_end) break;
        run_cell(c, first_pass);
      }
      first_pass = false;
    } while (now_s() < t_end);
    if (ctx_.trace) policy_probe();
  }

  void report(Metrics& m) override {
    std::vector<double> all, damc;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      all.push_back(first_[c].makespan_s);
      if (cells_[c].policy == Policy::kDamC)
        damc.push_back(first_[c].makespan_s);
    }
    if (!ctx_.trace) {
      m.set("makespan_s", geomean(all), "s");
      m.set("makespan_damc_s", geomean(damc), "s");
      return;
    }
    // Each cell's median host time over the passes, summed over cells.
    double tasks = 0.0, host_s = 0.0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      tasks += static_cast<double>(input_of(cells_[c]).dag.num_nodes());
      host_s += median(cell_host_s_[c]);
    }
    m.set("host_tasks_per_s", tasks / host_s, "1/s");
    std::vector<double> busy, width, rel;
    double reexec = 0.0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      busy.push_back(first_[c].busy_frac);
      if (first_[c].high_width > 0.0) width.push_back(first_[c].high_width);
      if (first_[c].rel_err >= 0.0) rel.push_back(first_[c].rel_err);
      reexec += static_cast<double>(first_[c].reexecuted);
    }
    m.set("sched.busy_frac", mean(busy), "ratio");
    m.set("sched.high_width_mean", mean(width), "cores");
    m.set("ptt.rel_err", mean(rel), "ratio");
    m.set("sim.tasks_reexecuted", reexec, "count");
    for (const auto& [name, ns] : policy_ns_) m.set(name, ns, "ns");
  }

 private:
  struct Input {
    Dag dag;
    TaskTypeId type = kInvalidTaskType;
    TaskParams params{};
    double bound_s = 0.0;
  };
  /// input < 0 marks the heat cell (4 Haswell ranks, own scenario file).
  struct Cell {
    Policy policy;
    int input;
    int scenario;
  };
  struct Outcome {
    double makespan_s = 0.0;
    double busy_frac = 0.0;
    double high_width = 0.0;
    double rel_err = -1.0;  ///< DAM-C TX2 cells only
    std::int64_t reexecuted = 0;
  };

  Input& input_of(const Cell& c) {
    return c.input < 0 ? heat_ : inputs_[static_cast<std::size_t>(c.input)];
  }

  std::unique_ptr<Executor> make_cell_executor(const Cell& c) const {
    ExecutorConfig cfg;
    cfg.seed = ctx_.seed;
    if (c.input >= 0) {
      cfg.scenario_spec = specs_[static_cast<std::size_t>(c.scenario)];
      return make_executor(Backend::kSim, tx2_, c.policy, reg_, cfg);
    }
    std::vector<sim::RankSpec> ranks(4, sim::RankSpec{&haswell_, nullptr});
    ranks[0].scenario = &*heat_scenario_;
    return make_executor(Backend::kSim, ranks, c.policy, reg_, cfg);
  }

  void run_cell(std::size_t idx, bool first_pass) {
    const Cell& c = cells_[idx];
    Input& in = input_of(c);
    auto exec = make_cell_executor(c);
    const std::int64_t t0 = now_ns();
    const RunResult r = exec->run(in.dag);
    cell_host_s_[idx].push_back(ns_to_s(now_ns() - t0));

    const std::string label =
        std::string(policy_name(c.policy)) + "/" +
        (c.input < 0 ? std::string("heat")
                     : std::to_string(c.input) + "/" +
                           kScenarioNames[c.scenario]);
    bool ok = r.ok() && r.tasks == in.dag.num_nodes() &&
              r.makespan_s >= in.bound_s;
    if (first_pass) {
      first_[idx] = observe(c, in, *exec, r);
    } else {
      // Fresh executor, same seed: the virtual makespan must repeat exactly.
      ok = ok && r.makespan_s == first_[idx].makespan_s;
    }
    ctx_.checks->job(ok, "paper-dynamic cell " + label);
  }

  Outcome observe(const Cell& c, const Input& in, Executor& exec,
                  const RunResult& r) const {
    Outcome o;
    o.makespan_s = r.makespan_s;
    o.reexecuted = r.tasks_reexecuted;
    if (!ctx_.trace) return o;
    double busy = 0.0, high = 0.0, high_frac = 0.0;
    int cores = 0;
    for (int rank = 0; rank < exec.num_ranks(); ++rank) {
      const StatsSnapshot& s = r.stats[static_cast<std::size_t>(rank)];
      busy += s.total_busy_s;
      cores += exec.topology(rank).num_cores();
      for (const auto& [place, frac] : s.high_distribution) {
        high += place.width * frac;
        high_frac += frac;
      }
    }
    o.busy_frac = busy / (r.makespan_s * cores);
    o.high_width = high_frac > 0.0 ? high / high_frac : 0.0;
    if (c.policy == Policy::kDamC && c.input >= 0)
      o.rel_err = ptt_rel_err(exec, in,
                              models_[static_cast<std::size_t>(c.scenario)]);
    return o;
  }

  /// Mean |PTT entry - cost model at the place's current speed| / model
  /// over the places the run explored.
  double ptt_rel_err(Executor& exec, const Input& in,
                     const SpeedScenario& sc) const {
    const Ptt& table = exec.ptt(0).table(in.type);
    const TaskTypeInfo& info = reg_.info(in.type);
    const double t = exec.now();
    double sum = 0.0;
    int n = 0;
    for (int pid = 0; pid < tx2_.num_places(); ++pid) {
      if (table.samples(pid) == 0) continue;
      const ExecutionPlace& p = tx2_.place_at(pid);
      double model = 0.0;
      for (int i = 0; i < p.width; ++i) {
        const int core = p.leader + i;
        CostQuery q;
        q.place = p;
        q.rank = i;
        q.core = core;
        q.speed = sc.speed(core, t);
        q.bw_share = sc.bandwidth_share(tx2_.cluster_index_of(core), t);
        q.cluster = &tx2_.cluster_of_core(core);
        model = std::max(model, cost_eval(info, in.params, q));
      }
      sum += std::abs(table.value(pid) - model) / model;
      ++n;
    }
    return n > 0 ? sum / n : 0.0;
  }

  /// Standalone PolicyEngine per Table-1 policy on the TX2, fed this
  /// workload's task mix (types weighted by task count, 1/p critical tasks,
  /// uniform cores) with a PTT warmed from the cost model.
  void policy_probe() {
    constexpr int kMix = 4096;
    constexpr int kReps = 5;
    const TaskTypeId types[] = {ids_.matmul, ids_.copy, ids_.stencil};
    const double type_weight[] = {32000, 10000, 20000};
    const double total_weight =
        type_weight[0] + type_weight[1] + type_weight[2];
    struct Item {
      TaskTypeId type;
      Priority prio;
      int core;
    };
    std::vector<Item> mix;
    Xoshiro256 rng(ctx_.seed);
    for (int i = 0; i < kMix; ++i) {
      double u = rng.uniform() * total_weight;
      int t = 0;
      while (t < 2 && u >= type_weight[t]) u -= type_weight[t++];
      const Priority prio =
          rng.uniform() < 1.0 / kParallelism ? Priority::kHigh : Priority::kLow;
      mix.push_back(Item{types[t], prio,
                         static_cast<int>(rng.uniform() * tx2_.num_cores()) %
                             tx2_.num_cores()});
    }
    for (Policy policy : all_policies()) {
      PttStore ptt(tx2_, reg_.size());
      for (int t = 0; t < 3; ++t) {
        const TaskParams params = inputs_[static_cast<std::size_t>(t)].params;
        for (int pid = 0; pid < tx2_.num_places(); ++pid) {
          const ExecutionPlace& p = tx2_.place_at(pid);
          const Cluster& cl = tx2_.cluster_of_core(p.leader);
          CostQuery q{p, 0, p.leader, cl.base_speed, 1.0, &cl};
          const double cost = cost_eval(reg_.info(types[t]), params, q);
          for (int k = 0; k < 4; ++k) ptt.table(types[t]).update(pid, cost);
        }
      }
      PolicyEngine pe(policy, tx2_, &ptt, ctx_.seed);
      std::vector<ExecutionPlace> places(mix.size());
      std::vector<double> ready, execute, record;
      for (int rep = 0; rep < kReps; ++rep) {
        std::int64_t t0 = now_ns();
        for (const Item& it : mix) (void)pe.on_ready(it.type, it.prio, it.core);
        std::int64_t t1 = now_ns();
        for (std::size_t i = 0; i < mix.size(); ++i)
          places[i] = pe.on_execute(mix[i].type, Priority::kLow, mix[i].core);
        std::int64_t t2 = now_ns();
        for (std::size_t i = 0; i < mix.size(); ++i)
          pe.record_sample(mix[i].type, places[i],
                           ptt.table(mix[i].type).value(places[i]));
        std::int64_t t3 = now_ns();
        ready.push_back(static_cast<double>(t1 - t0) / kMix);
        execute.push_back(static_cast<double>(t2 - t1) / kMix);
        record.push_back(static_cast<double>(t3 - t2) / kMix);
      }
      const std::string suffix = std::string(".") + policy_name(policy);
      policy_ns_.emplace_back("policy.on_ready_ns" + suffix, median(ready));
      policy_ns_.emplace_back("policy.on_execute_ns" + suffix,
                              median(execute));
      policy_ns_.emplace_back("policy.record_sample_ns" + suffix,
                              median(record));
    }
  }

  Ctx ctx_;
  Topology tx2_;
  Topology haswell_;
  TaskTypeRegistry reg_;
  kernels::PaperKernelIds ids_;
  std::vector<Input> inputs_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<SpeedScenario> models_;
  Input heat_;
  std::optional<SpeedScenario> heat_scenario_;
  std::vector<Cell> cells_;
  std::vector<Outcome> first_;
  std::vector<std::vector<double>> cell_host_s_;  ///< per cell, per pass
  std::vector<std::pair<std::string, double>> policy_ns_;
};

}  // namespace

std::unique_ptr<Group> make_paper_dynamic(const Ctx& ctx) {
  return std::make_unique<PaperDynamic>(ctx);
}

}  // namespace perfbench
