// Server load-balancer churn — Fig. 10's dual-homed server generalized to
// a full flow-lifecycle workload (examples/scenarios/server_lb_churn.toml
// is the scenario-engine twin of this harness).
//
// Poisson arrivals of finite multipath transfers (Pareto sizes) churn
// against persistent background load: one single-path TCP pinned to each
// link plus a long-lived multipath connection. Every multipath connection
// is driven by a threshold PathManager (start single-path, add the second
// link per delivered bytes); a scripted outage on link 2 forces the full
// drop -> backoff -> re-probe arc mid-run. Completed arrivals are
// reclaimed once their wire-reference ledger drains, so the live
// connection population — and the packet pool's peak — stays bounded by
// the offered load, not the all-time flow count. That makes this the
// perf-tracking bench for the lifecycle layer: events/s measures the
// open/close machinery at churn scale, peak_pool_packets regresses if
// reclamation (or the pool conservation it relies on) breaks.
//
// Multi-seed on the ExperimentRunner; per-run wall/events metrics and the
// churn counters go to BENCH_churn_lb.json (gated by tools/bench_diff.py).
#include <memory>
#include <string>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "harness.hpp"
#include "mptcp/path_manager.hpp"
#include "net/queue.hpp"
#include "topo/network.hpp"
#include "traffic/poisson_flows.hpp"

namespace mpsim {
namespace {

struct Result {
  double mp_mbps = 0.0;        // long-lived multipath goodput over measure
  double mean_fct_ms = 0.0;    // mean churn-flow completion time
  double started = 0.0;
  double reclaimed = 0.0;
  double subflows_added = 0.0;
  double subflows_dropped = 0.0;
  double reprobes = 0.0;
};

Result run(EventList& events, std::uint64_t arrival_seed) {
  // All durations stretched 4x beyond the usual bench timeline: each run
  // must stay long enough (hundreds of ms of wall time even at
  // MPSIM_BENCH_SCALE=0.1) that events_per_sec is not dominated by CPU
  // frequency-ramp noise — the gate compares per run at +-10%.
  const auto T = [](double sec) { return bench::scaled(4.0 * sec); };
  topo::Network net(events);
  auto l1 = net.add_link("l1", 400e6, from_ms(5),
                         topo::bdp_bytes(400e6, from_ms(10)));
  auto& a1 = net.add_pipe("a1", from_ms(5));
  auto l2 = net.add_link("l2", 400e6, from_ms(5),
                         topo::bdp_bytes(400e6, from_ms(10)));
  auto& a2 = net.add_pipe("a2", from_ms(5));
  auto& vq = *l2.queue;

  mptcp::PathManagerConfig pm_cfg;
  pm_cfg.strategy = mptcp::PathStrategy::kThreshold;
  pm_cfg.add_threshold_bytes = 64 * 1024;
  pm_cfg.max_subflows = 2;
  pm_cfg.scan_period = from_ms(50);
  pm_cfg.reprobe_backoff = from_ms(500);
  pm_cfg.dead_after_rtos = 2;

  auto make_mp = [&](const std::string& name, std::uint64_t pkts) {
    mptcp::ConnectionConfig cfg;
    cfg.app_limit_pkts = pkts;
    // Short RTO floor so dead-path detection fits inside the scaled
    // outage (the floor only binds during total loss).
    cfg.subflow.min_rto = from_ms(50);
    auto conn = std::make_unique<mptcp::MptcpConnection>(events, name,
                                                         cc::mptcp_lia(), cfg);
    auto& pm = conn->attach_path_manager(pm_cfg);
    pm.add_candidate(topo::path_of({&l1}), {&a1});
    pm.add_candidate(topo::path_of({&l2}), {&a2});
    return conn;
  };

  traffic::PoissonConfig pcfg;
  pcfg.light_rate_per_sec = 100.0;
  pcfg.heavy_rate_per_sec = 200.0;
  pcfg.phase_duration = T(5);
  pcfg.mean_flow_bytes = 150e3;
  pcfg.seed = arrival_seed;
  traffic::PoissonFlowGenerator gen(
      events, "churn", pcfg,
      [&](const std::string& name, std::uint64_t pkts) {
        auto conn = make_mp(name, pkts);
        conn->start(events.now());
        return conn;
      });

  Result r;
  gen.on_reclaim = [&](mptcp::MptcpConnection& c) {
    if (const auto* pm = c.path_manager()) {
      r.subflows_added += static_cast<double>(pm->subflows_opened());
      r.subflows_dropped += static_cast<double>(pm->subflows_dropped());
      r.reprobes += static_cast<double>(pm->reprobes());
    }
  };

  auto tcp1 = mptcp::make_single_path_tcp(events, "tcp1", topo::path_of({&l1}),
                                          {&a1});
  auto tcp2 = mptcp::make_single_path_tcp(events, "tcp2", topo::path_of({&l2}),
                                          {&a2});
  auto mp_bg = make_mp("mp_bg", 0);  // long-lived

  gen.start(0);
  tcp1->start(from_ms(3));
  tcp2->start(from_ms(5));
  mp_bg->start(from_ms(7));

  // Warmup, then measure across a scripted link-2 outage.
  const SimTime t_meas0 = T(2);
  events.run_until(t_meas0);
  const auto bg0 = mp_bg->delivered_pkts();

  events.run_until(T(8));
  vq.set_rate(0.0);
  events.run_until(T(13));
  vq.set_rate(400e6);

  const SimTime t_end = T(22);
  events.run_until(t_end);
  events.cancel(gen);           // stop admitting; drain what is in flight
  events.run_until(t_end + T(3));
  gen.reclaim_completed();

  r.mp_mbps = stats::pkts_to_mbps(mp_bg->delivered_pkts() - bg0,
                                  t_end - t_meas0);
  double fct_sum = 0.0;
  for (SimTime t : gen.completion_times()) fct_sum += to_sec(t);
  r.mean_fct_ms = gen.completion_times().empty()
                      ? 0.0
                      : 1e3 * fct_sum /
                            static_cast<double>(gen.completion_times().size());
  r.started = static_cast<double>(gen.flows_started());
  r.reclaimed = static_cast<double>(gen.flows_reclaimed());
  // Fold in the long-lived connection's manager (never reclaimed).
  if (const auto* pm = mp_bg->path_manager()) {
    r.subflows_added += static_cast<double>(pm->subflows_opened());
    r.subflows_dropped += static_cast<double>(pm->subflows_dropped());
    r.reprobes += static_cast<double>(pm->reprobes());
  }
  return r;
}

}  // namespace
}  // namespace mpsim

int main() {
  using namespace mpsim;
  bench::banner(
      "server LB churn: Poisson multipath arrivals (Pareto 150 kB) with a "
      "threshold PathManager, persistent per-link TCPs + long-lived "
      "multipath, scripted link-2 outage",
      "generalizes Fig. 10; lifecycle layer under load (adds, drops, "
      "re-probes, reclamation)");

  const int nseeds = bench::env_seeds(4);
  std::vector<Result> per_seed(static_cast<std::size_t>(nseeds));

  runner::RunnerConfig rcfg;
  rcfg.threads = bench::env_threads();
  runner::ExperimentRunner exp(rcfg);
  for (int k = 0; k < nseeds; ++k) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(k);
    exp.add("seed" + std::to_string(seed),
            [&per_seed, k, seed](runner::RunContext& ctx) {
              ctx.annotate("arrival_seed", std::to_string(seed));
              ctx.annotate("traffic", "churn_pareto_150kB");
              const Result r = run(ctx.events(), seed);
              per_seed[static_cast<std::size_t>(k)] = r;
              ctx.record("mp_bg_mbps", r.mp_mbps);
              ctx.record("mean_fct_ms", r.mean_fct_ms);
              ctx.record("flows_started", r.started);
              ctx.record("flows_reclaimed", r.reclaimed);
              ctx.record("subflows_added", r.subflows_added);
              ctx.record("subflows_dropped", r.subflows_dropped);
              ctx.record("subflow_reprobes", r.reprobes);
            });
  }
  // Untracked warmup: absorb the process-start CPU frequency ramp so the
  // tracked runs' events_per_sec is comparable across invocations (the
  // per-run gate in tools/bench_diff.py is ±10%, the ramp alone is worth
  // more than that on a cold core).
  for (int w = 0; w < 3; ++w) {
    EventList warm;
    (void)run(warm, 999);
  }

  const auto results = exp.run_all();

  stats::Table seeds({"seed", "bg Mb/s", "mean FCT ms", "flows", "reclaimed",
                      "adds", "drops", "reprobes"});
  Result mean;
  for (int k = 0; k < nseeds; ++k) {
    const Result& r = per_seed[static_cast<std::size_t>(k)];
    seeds.add_row(std::to_string(1 + k),
                  {r.mp_mbps, r.mean_fct_ms, r.started, r.reclaimed,
                   r.subflows_added, r.subflows_dropped, r.reprobes},
                  1);
    mean.mp_mbps += r.mp_mbps;
    mean.mean_fct_ms += r.mean_fct_ms;
    mean.started += r.started;
    mean.reclaimed += r.reclaimed;
    mean.subflows_added += r.subflows_added;
    mean.subflows_dropped += r.subflows_dropped;
    mean.reprobes += r.reprobes;
  }
  mean.mp_mbps /= nseeds;
  mean.mean_fct_ms /= nseeds;
  mean.started /= nseeds;
  mean.reclaimed /= nseeds;
  mean.subflows_added /= nseeds;
  mean.subflows_dropped /= nseeds;
  mean.reprobes /= nseeds;
  seeds.print();

  std::printf("\nexpected shape: every seed shows adds > flows (threshold "
              "opens), drops >= 1 and reprobes >= 1 (outage arc), and "
              "reclaimed tracking flows started\n");

  std::printf("\nrunner: %d runs on %u threads, %.2fs total run wall, "
              "%.3g events/s aggregate\n",
              nseeds, exp.resolved_threads(),
              runner::total_wall_seconds(results),
              runner::total_wall_seconds(results) > 0
                  ? static_cast<double>(runner::total_events(results)) /
                        runner::total_wall_seconds(results)
                  : 0.0);

  bench::Json root = bench::Json::object();
  root.set("bench", "churn_lb");
  root.set("seeds", static_cast<double>(nseeds));
  root.set("threads", static_cast<double>(exp.resolved_threads()));
  bench::Json means = bench::Json::object();
  means.set("mp_bg_mbps", mean.mp_mbps);
  means.set("mean_fct_ms", mean.mean_fct_ms);
  means.set("flows_started", mean.started);
  means.set("flows_reclaimed", mean.reclaimed);
  means.set("subflows_added", mean.subflows_added);
  means.set("subflows_dropped", mean.subflows_dropped);
  means.set("subflow_reprobes", mean.reprobes);
  root.set("mean", std::move(means));
  root.set("sum_run_wall_seconds", runner::total_wall_seconds(results));
  root.set("runs", bench::json_from_results(results));
  bench::write_bench_json("churn_lb", root);
  return 0;
}
