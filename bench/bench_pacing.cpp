// Pacing-cost microbench: the rate-based CC subsystem must be free when
// it is off.
//
// Two runs over the same fast two-link topology, identical except for the
// controller: a window-mode coupled connection (pacing off — the pre-rate
// fast path: no RateHot row, no estimator, no pacer timers) and a
// rate-mode Coupled BBR connection (pacing on — every launch consults the
// pacing gate, every ACK feeds the delivery-rate estimator). Both runs'
// events_per_sec land in BENCH_pacing.json and are gated per run by
// tools/bench_diff.py against bench/baselines/BENCH_pacing.json at ±10%:
// the window run regresses if the mere presence of the rate surface ever
// leaks cost into the pacing-off path; the rate run regresses if the
// pacer or estimator themselves get slower.
#include <cstdio>
#include <string>
#include <vector>

#include "cc/coupled_bbr.hpp"
#include "cc/mptcp_lia.hpp"
#include "harness.hpp"
#include "topo/two_link.hpp"

namespace mpsim {
namespace {

struct Result {
  double mp_mbps = 0.0;
};

Result run(EventList& events, const cc::CongestionControl& algo) {
  // Stretched 4x: each run must stay long enough at MPSIM_BENCH_SCALE=0.1
  // that events_per_sec is not dominated by CPU frequency-ramp noise — the
  // gate compares per run at +-10%.
  const auto T = [](double sec) { return bench::scaled(4.0 * sec); };
  topo::Network net(events);
  // High packet rates so per-packet cost dominates the event loop; the
  // RTT mismatch keeps both the coupled window and the BBR rate model
  // doing real per-path work instead of collapsing to symmetry.
  topo::TwoLink links(net,
                      topo::LinkSpec::pkt_rate(20000.0, from_ms(5), 1.0),
                      topo::LinkSpec::pkt_rate(10000.0, from_ms(20), 1.0));
  mptcp::MptcpConnection m(events, "m", algo);
  m.add_subflow(links.fwd(0), links.rev(0));
  m.add_subflow(links.fwd(1), links.rev(1));
  m.start(0);

  const SimTime t0 = T(1);
  events.run_until(t0);
  const auto d0 = m.delivered_pkts();
  const SimTime t1 = T(6);
  events.run_until(t1);

  Result r;
  r.mp_mbps = stats::pkts_to_mbps(m.delivered_pkts() - d0, t1 - t0);
  return r;
}

}  // namespace
}  // namespace mpsim

int main() {
  using namespace mpsim;
  bench::banner(
      "pacing cost: window-mode coupled vs rate-mode Coupled BBR on a fast "
      "RTT-mismatched two-link",
      "rate subsystem overhead bound (DESIGN.md rate-based CC & pacing); "
      "window run = pacing-off cost, rate run = pacer+estimator cost");

  struct Variant {
    std::string name;
    const cc::CongestionControl* algo;
  };
  const std::vector<Variant> variants = {
      {"window_coupled", &cc::mptcp_lia()},
      {"rate_coupled_bbr", &cc::coupled_bbr()},
  };

  std::vector<Result> per_run(variants.size());

  runner::RunnerConfig rcfg;
  rcfg.threads = bench::env_threads();
  runner::ExperimentRunner exp(rcfg);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    exp.add(v.name, [&per_run, i, &v](runner::RunContext& ctx) {
      ctx.annotate("controller", v.name);
      const Result r = run(ctx.events(), *v.algo);
      per_run[i] = r;
      ctx.record("mp_mbps", r.mp_mbps);
    });
  }
  // Untracked warmup: absorb the process-start CPU frequency ramp so the
  // tracked runs' events_per_sec is comparable across invocations.
  for (int w = 0; w < 3; ++w) {
    EventList warm;
    (void)run(warm, cc::coupled_bbr());
  }

  const auto results = exp.run_all();

  stats::Table table({"variant", "goodput Mb/s", "events/s"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    table.add_row(variants[i].name,
                  {per_run[i].mp_mbps, results[i].metrics.events_per_sec}, 3);
  }
  table.print();

  if (results.size() == 2 && results[0].metrics.events_per_sec > 0) {
    const double overhead_pct = 100.0 *
        (results[0].metrics.events_per_sec -
         results[1].metrics.events_per_sec) /
        results[0].metrics.events_per_sec;
    std::printf("\nrate-mode events/s overhead vs window mode: %+.2f%% "
                "(informational; rate mode also schedules pacer timers, so "
                "its event mix differs — the regression gate compares each "
                "run against its own baseline)\n",
                overhead_pct);
  }
  std::printf("expected shape: both variants saturate the two-link "
              "aggregate; window run events/s tracks the pre-rate-subsystem "
              "fast path\n");

  std::fprintf(stderr, "\n[bench_pacing] %zu runs in %u thread(s)\n",
               results.size(), exp.resolved_threads());

  bench::Json root = bench::Json::object();
  root.set("bench", "pacing");
  root.set("threads", static_cast<double>(exp.resolved_threads()));
  root.set("sum_run_wall_seconds", runner::total_wall_seconds(results));
  root.set("runs", bench::json_from_results(results));
  bench::write_bench_json("pacing", root);
  return 0;
}
