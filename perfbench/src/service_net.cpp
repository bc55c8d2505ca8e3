// service-net: the scheduler as a service over the in-process net::World.
// Rank 0 serves a sim-backed DAM-C executor; two interactive clients run a
// closed loop (submit a 320-task DAG, wait, think, repeat) in weighted
// sessions while a batch client submits a 3,200-task DAG every 10 ms in a
// lower-weight session. The server is sequential, so the batch jobs'
// head-of-line blocking shows in the interactive tail.

#include <chrono>
#include <latch>
#include <thread>

#include "common.hpp"
#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "net/service.hpp"
#include "net/wire.hpp"
#include "net/world.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

using namespace das;

constexpr int kInteractiveTasks = 320;
constexpr int kBatchTasks = 3200;
constexpr int kParallelism = 4;
/// The batch tenant submits one DAG per period (open loop, paced), so its
/// share of the sequential server stays fixed instead of racing the
/// interactive clients.
constexpr std::int64_t kBatchPeriodNs = 10'000'000;
/// Interactive think time between a reply and the next request: keeps the
/// two closed loops from phase-locking on the sequential server.
constexpr std::int64_t kThinkNs = 500'000;
constexpr int kPings = 200;
constexpr int kProbeReps = 50;

class ServiceNet final : public Group {
 public:
  explicit ServiceNet(const Ctx& ctx)
      : ctx_(ctx), ranks_(std::min(4, ctx.threads)), tx2_(Topology::tx2()) {}

  void setup() override {
    ids_ = kernels::register_paper_kernels(reg_);
    for (int c = 0; c < 3; ++c) {
      workloads::SyntheticDagSpec spec =
          workloads::paper_matmul_spec(ids_.matmul, kParallelism);
      spec.total_tasks = c < 2 ? kInteractiveTasks : kBatchTasks;
      dags_.push_back(workloads::make_synthetic_dag(spec));
    }
    ExecutorConfig cfg;
    cfg.seed = ctx_.seed;
    server_exec_ = make_executor(Backend::kSim, tx2_, Policy::kDamC, reg_, cfg);
    world_ = std::make_unique<net::World>(ranks_);
    // Warm-up job on the server executor; each client also runs one
    // unmeasured job before the timed window.
    const RunResult r = server_exec_->run(dags_[0]);
    ctx_.checks->job(r.ok() && r.tasks == dags_[0].num_nodes(),
                     "service-net warm-up job");
  }

  void run(double budget_s) override {
    struct ClientLog {
      std::vector<double> rtt_us;  ///< timed interactive jobs only
      std::int64_t attempted = 0, failed = 0;
      std::int64_t start_ns = 0, end_ns = 0;
    };
    const int clients = ranks_ - 1;
    std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
    std::latch ready(clients);
    std::vector<double> ping_us;

    world_->run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        net::ServeOptions opts;
        opts.num_clients = clients;
        net::serve_executor(comm, *server_exec_, opts);
        return;
      }
      const int c = comm.rank() - 1;
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      // Clients 0 and 1 are interactive; client 2 is the batch tenant.
      const bool batch = c == 2;
      TenantConfig tc;
      tc.name = batch ? "batch" : "interactive-" + std::to_string(c);
      tc.weight = batch ? 1.0 : 4.0;
      net::ServiceClient client(comm, 0);
      const int session = client.open_session(tc);
      const Dag& dag = dags_[static_cast<std::size_t>(c)];
      auto one_job = [&](bool timed) {
        const std::int64_t t0 = now_ns();
        const JobId id = client.submit(dag, {}, session);
        const net::WireRunResult r = client.wait(id);
        const std::int64_t t1 = now_ns();
        ++log.attempted;
        if (!(r.ok() && r.tasks == dag.num_nodes() && r.tenant == tc.name))
          ++log.failed;
        if (timed && !batch)
          log.rtt_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      };
      one_job(false);
      if (ctx_.trace && c == 0) {
        for (int i = 0; i < kPings; ++i) {
          const std::int64_t t0 = now_ns();
          client.ping();
          ping_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
      }
      ready.arrive_and_wait();
      log.start_ns = now_ns();
      const std::int64_t deadline =
          log.start_ns + static_cast<std::int64_t>(budget_s * 1e9);
      std::int64_t next = log.start_ns;
      do {
        if (batch) {
          const std::int64_t early_ns = next - now_ns();
          if (early_ns > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(early_ns));
          next += kBatchPeriodNs;
        }
        one_job(true);
        if (!batch)
          std::this_thread::sleep_for(std::chrono::nanoseconds(kThinkNs));
      } while (now_ns() < deadline);
      log.end_ns = now_ns();
      client.bye();
    });

    std::int64_t jobs = 0, start = logs[0].start_ns, end = 0;
    for (const ClientLog& log : logs) {
      for (std::int64_t i = 0; i < log.attempted; ++i)
        ctx_.checks->job(i >= log.failed, "service-net reply");
      rtt_us_.insert(rtt_us_.end(), log.rtt_us.begin(), log.rtt_us.end());
      jobs += static_cast<std::int64_t>(log.rtt_us.size());
      if (!log.rtt_us.empty()) {
        start = std::min(start, log.start_ns);
        end = std::max(end, log.end_ns);
      }
    }
    jobs_per_s_ = static_cast<double>(jobs) / ns_to_s(end - start);
    ping_us_ = median(ping_us);
    if (ctx_.trace) probe_layers();
  }

  void report(Metrics& m) override {
    if (!ctx_.trace) return;
    const double p50 = quantile(rtt_us_, 0.5);
    m.set("net.rtt_p50_us", p50, "us");
    m.set("net.rtt_p99_us", quantile(rtt_us_, 0.99), "us");
    m.set("net.jobs_per_s", jobs_per_s_, "1/s");
    m.set("net.request_bytes", request_bytes_, "bytes");
    m.set("net.encode_us", encode_us_, "us");
    m.set("net.decode_us", decode_us_, "us");
    m.set("net.ping_rtt_us", ping_us_, "us");
    m.set("net.engine_us", engine_us_, "us");
    m.set("net.batch_engine_ms", batch_engine_ms_, "ms");
    m.set("net.unattributed_us",
          p50 - (encode_us_ + decode_us_ + ping_us_ + engine_us_), "us");
  }

  std::vector<std::pair<std::string, int>> threads() const override {
    return {{"world_ranks", ranks_}};
  }

 private:
  /// Codec and engine costs of the request, measured outside the service:
  /// the wire codecs on the interactive DAG, and both DAGs run on a local
  /// executor configured like the server's.
  void probe_layers() {
    const Dag& dag = dags_[0];
    std::vector<double> enc, dec, eng, batch;
    for (int i = 0; i < kProbeReps; ++i) {
      net::WireWriter w;
      std::int64_t t0 = now_ns();
      net::encode_dag(dag, w);
      std::int64_t t1 = now_ns();
      net::WireReader r(w.data(), w.size());
      const Dag back = net::decode_dag(r);
      std::int64_t t2 = now_ns();
      enc.push_back(static_cast<double>(t1 - t0) * 1e-3);
      dec.push_back(static_cast<double>(t2 - t1) * 1e-3);
      request_bytes_ = static_cast<double>(w.size());
      ctx_.checks->job(back.num_nodes() == dag.num_nodes() &&
                           back.num_edges() == dag.num_edges(),
                       "service-net wire round trip");
    }
    ExecutorConfig cfg;
    cfg.seed = ctx_.seed;
    auto local = make_executor(Backend::kSim, tx2_, Policy::kDamC, reg_, cfg);
    for (int i = 0; i < kProbeReps; ++i) {
      std::int64_t t0 = now_ns();
      const RunResult r = local->run(dag);
      eng.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ctx_.checks->job(r.ok() && r.tasks == dag.num_nodes(),
                       "service-net local job");
    }
    for (int i = 0; i < kProbeReps / 5; ++i) {
      std::int64_t t0 = now_ns();
      const RunResult r = local->run(dags_[2]);
      batch.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      ctx_.checks->job(r.ok() && r.tasks == dags_[2].num_nodes(),
                       "service-net local batch job");
    }
    encode_us_ = median(enc);
    decode_us_ = median(dec);
    engine_us_ = median(eng);
    batch_engine_ms_ = median(batch);
  }

  Ctx ctx_;
  int ranks_;
  Topology tx2_;
  TaskTypeRegistry reg_;
  kernels::PaperKernelIds ids_;
  std::vector<Dag> dags_;  ///< interactive 0, interactive 1, batch
  std::unique_ptr<Executor> server_exec_;
  std::unique_ptr<net::World> world_;
  std::vector<double> rtt_us_;
  double jobs_per_s_ = 0.0;
  double ping_us_ = 0.0;
  double request_bytes_ = 0.0, encode_us_ = 0.0, decode_us_ = 0.0;
  double engine_us_ = 0.0, batch_engine_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Group> make_service_net(const Ctx& ctx) {
  return std::make_unique<ServiceNet>(ctx);
}

}  // namespace perfbench
