// Sharded-FatTree throughput tracker: the k = 8 permutation workload of
// Fig. 13 executed at 1, 2 and 4 shards (--shard-threads equivalent,
// conservative parallel DES). The simulation is byte-identical at every
// shard count — test_parallel_des pins that — so the *only* thing this
// bench measures is the cost/benefit of the window protocol: events/sec
// per shard count, and the shard speedup relative to the sequential run.
//
// BENCH_fattree_shard.json is gated by tools/bench_diff.py against
// bench/baselines/: events_per_sec per run (so a regression in either the
// sequential path or the sharded path trips on its own row) and
// peak_pool_packets (per-shard pool peaks are summed; the total is
// deterministic). Speedup > 1 needs >= 4 physical cores — on fewer cores
// the barrier overhead makes shards a net cost, which the per-row gate
// still tracks fairly since baseline and current run on the same class of
// machine.
#include <memory>
#include <string>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "harness.hpp"
#include "topo/fat_tree.hpp"
#include "traffic/traffic_matrix.hpp"

namespace mpsim {
namespace {

// The Fig. 13 construction, placed shard-aware: every connection lives on
// its source host's shard and ACK/delivery hops stay shard-local, so the
// only cross-shard traffic is the aggregation<->core mailbox handoff.
void dc_job(runner::RunContext& ctx) {
  topo::Network net(ctx.events(), &ctx.shards());
  topo::FatTree ft(net, 8);
  Rng tm_rng(4243);
  const auto tm = traffic::permutation_tm(ft.num_hosts(), tm_rng);
  Rng path_rng(1);
  mptcp::ConnectionConfig ccfg;
  ccfg.subflow.min_rto = from_ms(10);  // DC RTO floor (DESIGN.md §4)
  ccfg.recv_buffer_pkts = 4096;

  std::vector<std::unique_ptr<mptcp::MptcpConnection>> flows;
  int idx = 0;
  for (const auto& pair : tm) {
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        ft.host_events(pair.src), "f" + std::to_string(idx),
        cc::mptcp_lia(), ccfg);
    auto paths = topo::sample_path_pairs(ft, pair.src, pair.dst, 8,
                                         path_rng);
    for (auto& pr : paths) {
      conn->add_subflow(std::move(pr.first), std::move(pr.second));
    }
    conn->start(bench::scaled(0.0005 * static_cast<double>(idx % 997)));
    flows.push_back(std::move(conn));
    ++idx;
  }

  const SimTime t0 = bench::scaled(1.0);
  const SimTime t1 = t0 + bench::scaled(3.0);
  ctx.run_until(t0);
  std::vector<std::uint64_t> at_mark;
  at_mark.reserve(flows.size());
  for (const auto& f : flows) at_mark.push_back(f->delivered_pkts());
  ctx.run_until(t1);

  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    delivered += flows[i]->delivered_pkts() - at_mark[i];
  }
  ctx.record("flows", static_cast<double>(flows.size()));
  ctx.record("delivered_pkts", static_cast<double>(delivered));
  ctx.record("total_mbps", stats::pkts_to_mbps(delivered, t1 - t0));
}

}  // namespace
}  // namespace mpsim

int main() {
  using namespace mpsim;
  bench::banner(
      "sharded FatTree k=8 permutation: events/sec at 1, 2, 4 shards",
      "conservative parallel DES; results byte-identical per "
      "test_parallel_des, so only the window-protocol cost moves");

  std::vector<runner::RunResult> results;
  for (int shards : {1, 2, 4}) {
    runner::RunnerConfig rcfg;
    rcfg.threads = 1;  // measure the shard workers, not job concurrency
    rcfg.shard_threads = shards;
    runner::ExperimentRunner exp(rcfg);
    exp.add("shards" + std::to_string(shards),
            [shards](runner::RunContext& ctx) {
              ctx.annotate("shard_threads", std::to_string(shards));
              ctx.annotate("topology", "fat_tree_k8");
              ctx.annotate("traffic", "permutation_tp1");
              dc_job(ctx);
            });
    auto batch = exp.run_all();
    results.insert(results.end(),
                   std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }

  stats::Table t({"shards", "total_mbps", "events/sec", "speedup"});
  const double base_eps = results[0].metrics.events_per_sec;
  for (const auto& r : results) {
    t.add_row(r.name.substr(6),
              {r.value("total_mbps"), r.metrics.events_per_sec,
               base_eps > 0.0 ? r.metrics.events_per_sec / base_eps : 0.0},
              2);
  }
  t.print();
  std::printf("\n(byte-identity across shard counts is pinned by "
              "test_parallel_des; delivered_pkts must match row-to-row)\n");

  bench::Json root = bench::Json::object();
  root.set("bench", "fattree_shard");
  root.set("runs", bench::json_from_results(results));
  bench::write_bench_json("fattree_shard", root);
  return 0;
}
