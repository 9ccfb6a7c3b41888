// PathManager: the policy layer owning a connection's subflow-set
// decisions (mptcp/path_manager.hpp). Strategies decide what to open at
// start, the threshold byte counter adds paths mid-transfer (htsim's
// SubflowControl trigger), and the scan loop declares RTO-dead subflows
// down, drops them, and re-probes after a backoff — all against a live
// connection whose coupled controller must only ever sweep active paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cc/congestion_control.hpp"
#include "cc/ewtcp.hpp"
#include "cc/mptcp_lia.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_manager.hpp"
#include "mptcp/scheduler.hpp"
#include "net/queue.hpp"
#include "sim_fixtures.hpp"
#include "topo/network.hpp"
#include "topo/two_link.hpp"

namespace mpsim {
namespace {

using mptcp::MptcpConnection;
using mptcp::PathManagerConfig;
using mptcp::PathStrategy;

topo::LinkSpec mid_link() {
  topo::LinkSpec spec;
  spec.rate_bps = 10e6;
  spec.one_way_delay = from_ms(10);
  spec.buf_bytes = topo::bdp_bytes(10e6, from_ms(20));
  return spec;
}

TEST(PathManager, FullMeshOpensEveryCandidateAtStart) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mid_link(), mid_link());
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kFullMesh;
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(links.fwd(0), links.rev(0));
  pm.add_candidate(links.fwd(1), links.rev(1));
  EXPECT_EQ(mp.num_subflows(), 0u) << "nothing opens before start";

  mp.start(from_ms(5));
  events.run_until(from_sec(5));
  EXPECT_EQ(mp.num_subflows(), 2u);
  EXPECT_EQ(pm.subflows_opened(), 2u);
  // Both candidates actually carry data, not just exist.
  EXPECT_GT(mp.subflow(0).packets_acked(), 100u);
  EXPECT_GT(mp.subflow(1).packets_acked(), 100u);
}

TEST(PathManager, NDiffPortsCyclesCandidatesToReachN) {
  // ndiffports(3) over a single physical path: three 5-tuples, one link.
  EventList events;
  topo::Network net(events);
  test::SingleLink link(net, 10e6, from_ms(10),
                        topo::bdp_bytes(10e6, from_ms(20)));
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kNDiffPorts;
  cfg.ndiffports = 3;
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(link.fwd(), link.rev());
  mp.start(0);
  events.run_until(from_sec(1));
  EXPECT_EQ(mp.num_subflows(), 3u);
  EXPECT_EQ(pm.subflows_opened(), 3u);
}

TEST(PathManager, NDiffPortsRespectsMaxSubflows) {
  EventList events;
  topo::Network net(events);
  test::SingleLink link(net, 10e6, from_ms(10),
                        topo::bdp_bytes(10e6, from_ms(20)));
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kNDiffPorts;
  cfg.ndiffports = 8;
  cfg.max_subflows = 2;
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(link.fwd(), link.rev());
  mp.start(0);
  events.run_until(from_sec(1));
  EXPECT_EQ(mp.num_subflows(), 2u);
  EXPECT_EQ(pm.subflows_opened(), 2u);
}

TEST(PathManager, ThresholdAddsSecondPathAfterDeliveredBytes) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mid_link(), mid_link());
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kThreshold;
  cfg.add_threshold_bytes = 256 * 1024;
  cfg.max_subflows = 2;
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(links.fwd(0), links.rev(0));
  pm.add_candidate(links.fwd(1), links.rev(1));
  mp.start(0);

  // At 10 Mb/s, 256 kB takes ~0.2 s; well before that only the first
  // candidate is open.
  events.run_until(from_ms(60));
  EXPECT_EQ(mp.num_subflows(), 1u) << "threshold starts single-path";

  events.run_until(from_sec(5));
  EXPECT_EQ(mp.num_subflows(), 2u)
      << "the byte counter must have opened the second candidate";
  EXPECT_GT(mp.subflow(1).packets_acked(), 100u)
      << "the added subflow joins the stripe, not just the roster";
  // max_subflows caps the growth even though delivered bytes keep
  // crossing multiples of the threshold.
  EXPECT_EQ(pm.subflows_opened(), 2u);
}

TEST(PathManager, ThresholdZeroNeverAdds) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mid_link(), mid_link());
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kThreshold;
  cfg.add_threshold_bytes = 0;  // adds disabled
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(links.fwd(0), links.rev(0));
  pm.add_candidate(links.fwd(1), links.rev(1));
  mp.start(0);
  events.run_until(from_sec(5));
  EXPECT_EQ(mp.num_subflows(), 1u);
  EXPECT_EQ(pm.subflows_opened(), 1u);
}

// The full dead-path arc on a live connection: an outage on link 2 makes
// its subflow fire RTOs with no acked progress until the manager declares
// it dead and drops it (outstanding data reinjected on the survivor), then
// re-probes it after the backoff; once the link is back the re-probed
// subflow carries data again.
TEST(PathManager, RtoDeadSubflowIsDroppedAndReprobed) {
  EventList events;
  topo::Network net(events);
  auto l1 = net.add_link("l1", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a1 = net.add_pipe("a1", from_ms(10));
  auto l2 = net.add_link("l2", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a2 = net.add_pipe("a2", from_ms(10));
  auto& vq = *l2.queue;

  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kFullMesh;
  cfg.dead_after_rtos = 2;
  cfg.reprobe_backoff = from_sec(1);
  cfg.scan_period = from_ms(100);
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(topo::path_of({&l1}), {&a1});
  pm.add_candidate(topo::path_of({&l2}), {&a2});
  mp.start(0);

  events.run_until(from_sec(2));
  ASSERT_EQ(mp.num_active_subflows(), 2u);
  const auto survivor_before = mp.subflow(0).packets_acked();

  // Outage: with min_rto = 200 ms and exponential backoff the second
  // consecutive no-progress RTO lands ~2 s in, so a 4 s outage
  // comfortably covers detection at dead_after_rtos = 2.
  vq.set_rate(0.0);
  events.run_until(from_sec(6));
  // The drop -> backoff -> re-probe -> still-dead cycle may complete more
  // than once inside a 4 s outage; at least one full drop must have fired.
  // (Whether subflow 1 is *currently* active at the 6 s sample depends on
  // which phase of that cycle the instant lands in — a re-probe attempt
  // holds it nominally active until its RTOs declare it dead again — so
  // the cycle is asserted through the drop/re-probe counters instead.)
  EXPECT_GE(pm.subflows_dropped(), 1u);
  EXPECT_GT(mp.subflow(0).packets_acked(), survivor_before)
      << "the survivor must keep the stream moving through the outage";
  // The backoff (1 s) expires inside the 4 s outage, so at least one
  // re-probe has already been attempted (and found the path still dead).
  EXPECT_GE(pm.reprobes(), 1u);

  vq.set_rate(10e6);
  const auto dead_acked = mp.subflow(1).packets_acked();
  events.run_until(from_sec(12));
  EXPECT_EQ(mp.num_active_subflows(), 2u)
      << "a re-probe after recovery must restore the full path set";
  EXPECT_GT(mp.subflow(1).packets_acked(), dead_acked + 100u)
      << "the re-probed subflow must carry data again";
}

TEST(PathManager, NeverDropsTheLastActiveSubflow) {
  EventList events;
  topo::Network net(events);
  auto l1 = net.add_link("l1", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a1 = net.add_pipe("a1", from_ms(10));
  auto& vq = *l1.queue;

  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  PathManagerConfig cfg;
  cfg.strategy = PathStrategy::kThreshold;
  cfg.add_threshold_bytes = 0;
  cfg.dead_after_rtos = 2;
  auto& pm = mp.attach_path_manager(cfg);
  pm.add_candidate(topo::path_of({&l1}), {&a1});
  mp.start(0);
  events.run_until(from_sec(1));
  ASSERT_EQ(mp.num_active_subflows(), 1u);

  // A long outage racks up far more stalled RTOs than dead_after_rtos,
  // but the sole subflow must stay in the set: a connection with zero
  // active subflows could never recover (and would trip the congestion
  // controller's at-least-one-active check).
  vq.set_rate(0.0);
  events.run_until(from_sec(15));
  EXPECT_EQ(pm.subflows_dropped(), 0u);
  EXPECT_EQ(mp.num_active_subflows(), 1u);
  EXPECT_GT(mp.subflow(0).timeouts(), cfg.dead_after_rtos);

  vq.set_rate(10e6);
  const auto acked = mp.subflow(0).packets_acked();
  events.run_until(from_sec(20));
  EXPECT_GT(mp.subflow(0).packets_acked(), acked)
      << "the kept subflow must resume on its own once the path heals";
}

// Eq. (1)'s sums range over the paths actually in use: a dropped subflow
// must vanish from every coupling sweep, and reappear on reactivation.
TEST(PathManager, DropExcludesSubflowFromCoupledSweeps) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mid_link(), mid_link());
  MptcpConnection mp(events, "mp", cc::ewtcp());
  mp.add_subflow(links.fwd(0), links.rev(0));
  mp.add_subflow(links.fwd(1), links.rev(1));
  mp.start(0);
  events.run_until(from_sec(5));

  ASSERT_EQ(cc::active_subflow_count(mp), 2u);
  const double both = cc::total_window(mp);
  EXPECT_DOUBLE_EQ(cc::ewtcp().weight_for(mp), 0.5);

  mp.drop_subflow(1, /*rto_dead=*/false);
  EXPECT_FALSE(mp.subflow_active(1));
  EXPECT_EQ(cc::active_subflow_count(mp), 1u);
  EXPECT_DOUBLE_EQ(cc::ewtcp().weight_for(mp), 1.0)
      << "EWTCP's 1/n must re-weight to the active count";
  EXPECT_DOUBLE_EQ(cc::total_window(mp), mp.cwnd_pkts(0))
      << "a dropped subflow's frozen window must not dilute the total";
  EXPECT_LT(cc::total_window(mp), both);

  mp.reactivate_subflow(1);
  EXPECT_EQ(cc::active_subflow_count(mp), 2u);
  EXPECT_DOUBLE_EQ(cc::ewtcp().weight_for(mp), 0.5);
  events.run_until(from_sec(10));
  EXPECT_GT(mp.subflow(1).packets_acked(), 100u);
}

// Regression (pre-fix this failed): data seqs queued for reinjection on a
// subflow that then dies — or that the receiver meanwhile acknowledges via
// another subflow — used to pin their reinject_pending_ entries forever,
// because nothing purged the queue when no next_data() pull ever drained
// it. The scheduler now purges stale entries on every cum-ACK advance and
// on subflow reset/drop.
TEST(DataSchedulerPurge, AckAdvanceReleasesStaleReinjections) {
  mptcp::DataScheduler s(/*app_limit_pkts=*/100, /*initial_window=*/1000);
  std::uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(s.next_data(seq));

  s.reinject({3, 4, 5});
  EXPECT_EQ(s.reinject_backlog(), 3u);

  // The receiver gets everything up to 10 via another subflow; no sender
  // ever pulls the queued seqs. Pre-fix, the backlog stayed at 3 forever.
  s.on_data_ack(10, 1000);
  EXPECT_EQ(s.reinject_backlog(), 0u);
  EXPECT_EQ(s.purged_total(), 3u);
}

TEST(DataSchedulerPurge, PurgeKeepsEntriesStillWorthSending) {
  mptcp::DataScheduler s(/*app_limit_pkts=*/100, /*initial_window=*/1000);
  std::uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(s.next_data(seq));

  s.reinject({3, 4, 5});
  s.on_data_ack(5, 1000);  // 3 and 4 retired; 5 still outstanding
  EXPECT_EQ(s.reinject_backlog(), 1u);
  EXPECT_EQ(s.purged_total(), 2u);

  // The surviving entry is handed out first, ahead of fresh data.
  ASSERT_TRUE(s.next_data(seq));
  EXPECT_EQ(seq, 5u);

  // Explicit purge (the drop/reset path) on an already-clean queue is a
  // no-op, and the duplicate filter accepts the seq again if it is still
  // unacked (a genuine re-reinjection after a second subflow death).
  EXPECT_EQ(s.purge_acked(), 0u);
  s.reinject({5});
  EXPECT_EQ(s.reinject_backlog(), 1u);
}

TEST(DataSchedulerPurge, DropPathPurgesWithoutWaitingForNextAck) {
  // drop_subflow() purges eagerly so a dying subflow cannot leave acked
  // seqs queued during the (possibly long) gap until the next cum-ACK
  // advance — the connection-level half of the regression above.
  EventList events;
  topo::Network net(events);
  topo::LinkSpec spec;
  spec.rate_bps = 10e6;
  spec.one_way_delay = from_ms(10);
  spec.buf_bytes = topo::bdp_bytes(10e6, from_ms(20));
  topo::TwoLink links(net, spec, spec);
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(links.fwd(0), links.rev(0));
  mp.add_subflow(links.fwd(1), links.rev(1));
  mp.start(0);
  events.run_until(from_sec(5));

  mp.drop_subflow(1, /*rto_dead=*/true);
  events.run_until(from_sec(10));
  // Whatever was reinjected at the drop has been pulled or purged; no
  // stale entry may linger once the stream has advanced far past it.
  EXPECT_EQ(mp.scheduler().reinject_backlog(), 0u);
}

}  // namespace
}  // namespace mpsim
