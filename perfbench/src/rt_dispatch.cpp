// rt-dispatch: real threads, timed on the wall clock. (a) Empty-kernel DAGs
// of 250k tasks under RWS — a chain at p=1 and a wide DAG at p=4 — isolate
// handoff, steal and park/wake. (b) The paper's matmul with real 64x64
// kernels at p=4 under DAM-C, with a co-runner on core 0 from the
// benchmark's own scenario file, shows the PTT learning from real timings.

#include <array>
#include <atomic>
#include <cmath>

#include "common.hpp"
#include "exec/executor.hpp"
#include "kernels/cost_models.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

constexpr int kEmptyTasks = 250'000;
constexpr int kWideParallelism = 4;
constexpr int kTile = 64;
constexpr double kMatmulScale = 0.1;  // 3200 tasks: ~0.1 s per job

/// Sum of row `i` of a row-major kTile x kTile matrix.
double row_sum_of(const double* c, int i) {
  double s = 0.0;
  for (int j = 0; j < kTile; ++j) s += c[i * kTile + j];
  return s;
}

/// Shared inputs of the real matmul kernel: every task computes A x B into
/// its participant core's scratch tile and checks its rows against the
/// reference row sums.
struct MatmulData {
  std::vector<double> a, b;
  std::array<double, kTile> row_sum{};       ///< reference, per row
  std::vector<std::vector<double>> scratch;  ///< one C tile per core
  std::atomic<std::int64_t> bad_rows{0};

  MatmulData(std::uint64_t seed, int cores)
      : a(kTile * kTile), b(kTile * kTile),
        scratch(static_cast<std::size_t>(cores),
                std::vector<double>(kTile * kTile)) {
    Xoshiro256 rng(seed);
    for (double& x : a) x = rng.uniform(-1.0, 1.0);
    for (double& x : b) x = rng.uniform(-1.0, 1.0);
    std::vector<double> c(kTile * kTile);
    kernels::matmul_reference(a.data(), b.data(), c.data(), kTile);
    for (int i = 0; i < kTile; ++i)
      row_sum[static_cast<std::size_t>(i)] = row_sum_of(c.data(), i);
  }

  void work(const ExecContext& ctx) {
    double* c = scratch[static_cast<std::size_t>(ctx.core)].data();
    kernels::matmul_partition(a.data(), b.data(), c, kTile, ctx.rank,
                              ctx.width);
    const kernels::RowRange rr =
        kernels::partition_rows(kTile, ctx.rank, ctx.width);
    for (int i = rr.begin; i < rr.end; ++i) {
      const double ref = row_sum[static_cast<std::size_t>(i)];
      if (std::abs(row_sum_of(c, i) - ref) > 1e-9 * (1.0 + std::abs(ref)))
        bad_rows.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

class RtDispatch final : public Group {
 public:
  explicit RtDispatch(const Ctx& ctx)
      : ctx_(ctx),
        workers_(std::min(4, ctx.threads)),
        topo_(workers_ >= 4 ? Topology::symmetric(2, workers_ / 2)
                            : Topology::symmetric(1, workers_)) {}

  void setup() override {
    ids_ = kernels::register_paper_kernels(reg_);
    const TaskTypeId empty =
        reg_.register_type("empty", kernels::fixed_cost(1e-9));
    workloads::SyntheticDagSpec spec;
    spec.type = empty;
    spec.work = [](const ExecContext&) {};
    spec.total_tasks = kEmptyTasks;
    spec.parallelism = 1;
    const std::int64_t t0 = now_ns();
    chain_ = workloads::make_synthetic_dag(spec);
    dag_build_ns_per_node_ =
        static_cast<double>(now_ns() - t0) / chain_.num_nodes();
    spec.parallelism = std::min(kWideParallelism, workers_);
    wide_ = workloads::make_synthetic_dag(spec);
    stamp_last_layer(chain_, 1);
    stamp_last_layer(wide_, spec.parallelism);
    spec.total_tasks = 20'000;
    const Dag warm = workloads::make_synthetic_dag(spec);

    data_ = std::make_unique<MatmulData>(ctx_.seed, topo_.num_cores());
    workloads::SyntheticDagSpec mm = workloads::paper_matmul_spec(
        ids_.matmul, std::min(kWideParallelism, workers_), kMatmulScale, kTile);
    MatmulData* d = data_.get();
    mm.work = [d](const ExecContext& ctx) { d->work(ctx); };
    matmul_ = workloads::make_synthetic_dag(mm);
    mm.total_tasks /= 10;
    const Dag warm_mm = workloads::make_synthetic_dag(mm);

    ExecutorConfig cfg;
    cfg.seed = ctx_.seed;
    const std::int64_t c0 = now_ns();
    rws_ = make_executor(Backend::kRt, topo_, Policy::kRws, reg_, cfg);
    ctor_ms_ = static_cast<double>(now_ns() - c0) * 1e-6;
    cfg.scenario_spec =
        scenario::load(ctx_.scenarios_dir + "/rt-corunner-core0.json");
    damc_ = make_executor(Backend::kRt, topo_, Policy::kDamC, reg_, cfg);

    // Warm-up: one unmeasured job per executor. The matmul warm-up also
    // gives DAM-C's PTT its first samples, as a persistent runtime has.
    const RunResult w = rws_->run(warm);
    ctx_.checks->job(w.ok() && w.tasks == warm.num_nodes(),
                     "rt warm-up (RWS)");
    (void)run_matmul(warm_mm);
  }

  void run(double budget_s) override {
    const double t_end = now_s() + budget_s;
    const double chain_n = chain_.num_nodes(), wide_n = wide_.num_nodes();
    do {
      chain_ns_.push_back(run_empty(chain_, ctx_.trace).wall_ns / chain_n);
      if (ctx_.trace) {
        // Alternate untraced and traced wide jobs: their difference is the
        // cost of the extra clock reads the traced run makes.
        wide_untraced_ns_.push_back(run_empty(wide_, false).wall_ns / wide_n);
        const Spans s = run_empty(wide_, true);
        wide_ns_.push_back(s.wall_ns / wide_n);
        submit_ns_.push_back(s.submit_ns / wide_n);
        wait_gap_us_.push_back(s.wait_gap_ns * 1e-3);
        unattributed_.push_back(
            (s.wall_ns - (s.submit_ns + s.makespan_ns + s.wait_gap_ns)) /
            s.wall_ns);
      } else {
        wide_ns_.push_back(run_empty(wide_, false).wall_ns / wide_n);
      }
      matmul_s_.push_back(run_matmul(matmul_));
    } while (now_s() < t_end);
  }

  void report(Metrics& m) override {
    if (!ctx_.trace) {
      m.set("rt.ns_per_task", median(wide_ns_), "ns");
      return;
    }
    m.set("rt.chain_ns_per_task", median(chain_ns_), "ns");
    m.set("rt.makespan_s", median(matmul_s_), "s");
    m.set("rt.ctor_ms", ctor_ms_, "ms");
    m.set("rt.busy_frac", median(busy_frac_), "ratio");
    m.set("dag.build_ns_per_node", dag_build_ns_per_node_, "ns");
    m.set("exec.submit_ns_per_task", median(submit_ns_), "ns");
    m.set("exec.wait_gap_us", median(wait_gap_us_), "us");
    m.set("rt.unattributed_frac", median(unattributed_), "ratio");
    const double untraced = median(wide_untraced_ns_);
    m.set("trace.overhead_frac", (median(wide_ns_) - untraced) / untraced,
          "ratio");
  }

  std::vector<std::pair<std::string, int>> threads() const override {
    return {{"rt_workers", topo_.num_cores()}};
  }

 private:
  struct Spans {
    double wall_ns = 0.0;      ///< submit call -> wait return
    double submit_ns = 0.0;    ///< the submit call alone
    double makespan_ns = 0.0;  ///< RunResult::makespan_s
    double wait_gap_ns = 0.0;  ///< wait return - last task's end
  };

  /// The last layer's tasks record when they ran, which dates the job's
  /// completion independently of the executor: the wait gap's anchor.
  void stamp_last_layer(Dag& dag, int width) {
    std::atomic<std::int64_t>* last = &last_task_ns_;
    for (NodeId id = dag.num_nodes() - width; id < dag.num_nodes(); ++id)
      dag.node(id).work = [last](const ExecContext&) {
        const std::int64_t t = now_ns();
        std::int64_t prev = last->load(std::memory_order_relaxed);
        while (prev < t && !last->compare_exchange_weak(prev, t)) {
        }
      };
  }

  /// One empty-kernel job on the RWS executor, timed from the submit call
  /// to the wait return. `traced` adds the clock read that splits it.
  Spans run_empty(const Dag& dag, bool traced) {
    Spans s;
    last_task_ns_.store(0);
    const std::int64_t t0 = now_ns();
    const JobId id = rws_->submit(dag);
    const std::int64_t t1 = traced ? now_ns() : 0;
    const RunResult r = rws_->wait(id);
    const std::int64_t t2 = now_ns();
    if (traced) {
      s.submit_ns = static_cast<double>(t1 - t0);
      s.makespan_ns = r.makespan_s * 1e9;
      s.wait_gap_ns = static_cast<double>(t2 - last_task_ns_.load());
    }
    s.wall_ns = static_cast<double>(t2 - t0);
    ctx_.checks->job(r.ok() && r.tasks == dag.num_nodes(),
                     "rt empty-kernel job");
    return s;
  }

  /// One DAM-C matmul job; returns its makespan. Fails when any row of any
  /// participation disagreed with the reference product.
  double run_matmul(const Dag& dag) {
    const std::int64_t bad0 = data_->bad_rows.load();
    const RunResult r = damc_->run(dag);
    const bool ok = r.ok() && r.tasks == dag.num_nodes() &&
                    data_->bad_rows.load() == bad0;
    ctx_.checks->job(ok, "rt matmul job");
    // Stats accumulate across jobs; the busy share is this job's delta.
    const double busy = r.stats.empty() ? 0.0 : r.stats[0].total_busy_s;
    if (ctx_.trace)
      busy_frac_.push_back((busy - last_busy_s_) /
                           (r.makespan_s * topo_.num_cores()));
    last_busy_s_ = busy;
    return r.makespan_s;
  }

  Ctx ctx_;
  int workers_;
  Topology topo_;
  TaskTypeRegistry reg_;
  kernels::PaperKernelIds ids_;
  Dag chain_, wide_, matmul_;
  std::unique_ptr<MatmulData> data_;
  std::atomic<std::int64_t> last_task_ns_{0};
  std::unique_ptr<Executor> rws_;
  std::unique_ptr<Executor> damc_;
  double ctor_ms_ = 0.0;
  double dag_build_ns_per_node_ = 0.0;
  double last_busy_s_ = 0.0;
  std::vector<double> chain_ns_, wide_ns_, wide_untraced_ns_, matmul_s_;
  std::vector<double> submit_ns_, wait_gap_us_, unattributed_, busy_frac_;
};

}  // namespace

std::unique_ptr<Group> make_rt_dispatch(const Ctx& ctx) {
  return std::make_unique<RtDispatch>(ctx);
}

}  // namespace perfbench
