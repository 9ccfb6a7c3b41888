// Multipath connection integration: striping, coupling, fairness at a
// shared bottleneck (Fig. 1), reinjection across subflows, completion.
#include "mptcp/connection.hpp"

#include <gtest/gtest.h>

#include "cc/coupled.hpp"
#include "cc/ewtcp.hpp"
#include "cc/mptcp_lia.hpp"
#include "cc/uncoupled.hpp"
#include "sim_fixtures.hpp"
#include "stats/monitors.hpp"
#include "topo/network.hpp"
#include "topo/two_link.hpp"

namespace mpsim {
namespace {

using mptcp::ConnectionConfig;
using mptcp::MptcpConnection;
using test::SingleLink;

topo::LinkSpec mk_spec(double rate_bps, SimTime one_way, double bdp_mult) {
  topo::LinkSpec s;
  s.rate_bps = rate_bps;
  s.one_way_delay = one_way;
  s.buf_bytes = topo::bdp_bytes(rate_bps, 2 * one_way, bdp_mult);
  return s;
}

TEST(Connection, UsesBothDisjointLinks) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mk_spec(10e6, from_ms(10), 1.0),
                      mk_spec(10e6, from_ms(10), 1.0));
  MptcpConnection conn(events, "mp", cc::mptcp_lia());
  conn.add_subflow(links.fwd(0), links.rev(0));
  conn.add_subflow(links.fwd(1), links.rev(1));
  conn.start(0);
  events.run_until(from_sec(20));
  // With two empty 10 Mb/s links, MPTCP should aggregate most of both.
  const double mbps = stats::pkts_to_mbps(conn.delivered_pkts(), from_sec(20));
  EXPECT_GT(mbps, 15.0);
  EXPECT_GT(conn.subflow(0).packets_acked(), 1000u);
  EXPECT_GT(conn.subflow(1).packets_acked(), 1000u);
  EXPECT_EQ(conn.receiver().window_violations(), 0u);
}

TEST(Connection, Fig1SharedBottleneckFairness) {
  // Fig. 1: a two-subflow MPTCP flow and a single-path TCP share one
  // bottleneck. Running UNCOUPLED on both subflows would take ~2/3 of the
  // link; MPTCP must take ~1/2.
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 12e6, from_ms(10), topo::bdp_bytes(12e6, from_ms(20)));
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(link.fwd(), link.rev());
  mp.add_subflow(link.fwd(), link.rev());
  auto tcp = test::single_tcp(events, "tcp", link);
  mp.start(0);
  tcp->start(from_ms(53));
  events.run_until(from_sec(5));  // warm-up
  const auto mp0 = mp.delivered_pkts();
  const auto tcp0 = tcp->delivered_pkts();
  events.run_until(from_sec(65));
  const double mp_share = static_cast<double>(mp.delivered_pkts() - mp0);
  const double tcp_share =
      static_cast<double>(tcp->delivered_pkts() - tcp0);
  const double frac = mp_share / (mp_share + tcp_share);
  EXPECT_NEAR(frac, 0.5, 0.12) << "MPTCP must not beat TCP at a shared "
                                  "bottleneck";
}

TEST(Connection, Fig1UncoupledIsUnfair) {
  // The control: UNCOUPLED on two subflows *does* take about twice the
  // single-path TCP's share (the problem §2.1 identifies).
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 12e6, from_ms(10), topo::bdp_bytes(12e6, from_ms(20)));
  MptcpConnection mp(events, "mp", cc::uncoupled());
  mp.add_subflow(link.fwd(), link.rev());
  mp.add_subflow(link.fwd(), link.rev());
  auto tcp = test::single_tcp(events, "tcp", link);
  mp.start(0);
  tcp->start(from_ms(53));
  events.run_until(from_sec(5));
  const auto mp0 = mp.delivered_pkts();
  const auto tcp0 = tcp->delivered_pkts();
  events.run_until(from_sec(65));
  const double mp_share = static_cast<double>(mp.delivered_pkts() - mp0);
  const double tcp_share =
      static_cast<double>(tcp->delivered_pkts() - tcp0);
  const double frac = mp_share / (mp_share + tcp_share);
  EXPECT_GT(frac, 0.58) << "uncoupled should grab ~2/3";
}

TEST(Connection, CoupledConcentratesOnLessCongestedPath) {
  // Link 1 carries four competing TCPs (heavily congested), link 2 one.
  // Window-based COUPLED sloshes between paths on short timescales, so the
  // concentration property is asserted on a long average with a strong
  // congestion asymmetry.
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mk_spec(10e6, from_ms(10), 1.0),
                      mk_spec(10e6, from_ms(10), 1.0));
  std::vector<std::unique_ptr<MptcpConnection>> competitors;
  for (int i = 0; i < 4; ++i) {
    competitors.push_back(mptcp::make_single_path_tcp(
        events, "c" + std::to_string(i), links.fwd(0), links.rev(0)));
    competitors.back()->start(from_ms(11 * i));
  }
  competitors.push_back(mptcp::make_single_path_tcp(events, "c4",
                                                    links.fwd(1),
                                                    links.rev(1)));
  competitors.back()->start(from_ms(23));
  MptcpConnection mp(events, "mp", cc::coupled());
  mp.add_subflow(links.fwd(0), links.rev(0));
  mp.add_subflow(links.fwd(1), links.rev(1));
  mp.start(from_ms(35));
  events.run_until(from_sec(120));
  const auto on_link1 = mp.subflow(0).packets_acked();
  const auto on_link2 = mp.subflow(1).packets_acked();
  EXPECT_GT(links.queue(0).loss_rate(), links.queue(1).loss_rate());
  EXPECT_GT(on_link2, 2 * on_link1)
      << "COUPLED should carry most traffic on the less congested link";
}

TEST(Connection, FiniteFlowCompletesAndStops) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mk_spec(10e6, from_ms(5), 1.0),
                      mk_spec(10e6, from_ms(5), 1.0));
  ConnectionConfig cfg;
  cfg.app_limit_pkts = 2000;
  MptcpConnection conn(events, "mp", cc::mptcp_lia(), cfg);
  conn.add_subflow(links.fwd(0), links.rev(0));
  conn.add_subflow(links.fwd(1), links.rev(1));
  int completions = 0;
  conn.on_complete = [&] { ++completions; };
  conn.start(0);
  events.run_until(from_sec(30));
  EXPECT_TRUE(conn.complete());
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(conn.receiver().data_cum_ack(), 2000u);
  // Both subflows carried data.
  EXPECT_GT(conn.subflow(0).packets_acked(), 100u);
  EXPECT_GT(conn.subflow(1).packets_acked(), 100u);
  const SimTime done_at = conn.completed_at();
  events.run_until(from_sec(40));
  EXPECT_EQ(conn.completed_at(), done_at);
}

TEST(Connection, ReinjectionRescuesDataFromDeadSubflow) {
  // Subflow 1's link dies mid-transfer with a window of data stranded on
  // it. The stranded data sequence numbers must be reinjected on subflow 0
  // after the RTO so the in-order stream keeps moving.
  EventList events;
  topo::Network net(events);
  auto& vq = net.add_queue("v", 10e6, 50 * net::kDataPacketBytes);
  auto& vpipe = net.add_pipe("vp", from_ms(10));
  auto& vack = net.add_pipe("va", from_ms(10));
  SingleLink good(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "good");

  MptcpConnection conn(events, "mp", cc::mptcp_lia());
  conn.add_subflow(good.fwd(), good.rev());
  conn.add_subflow({&vq, &vpipe}, {&vack});
  conn.start(0);
  events.run_until(from_sec(3));
  ASSERT_GT(conn.subflow(1).inflight(), 0u) << "need stranded data to test";
  vq.set_rate(0.0);  // kill subflow 1 permanently
  const auto delivered_before = conn.receiver().delivered();
  events.run_until(from_sec(10));
  EXPECT_GT(conn.subflow(1).timeouts(), 0u);
  // ~7 s at close to 10 Mb/s on the good link ~= 5800 packets; without
  // reinjection the stream would stall at the first stranded sequence.
  EXPECT_GT(conn.receiver().delivered() - delivered_before, 4000u);
  EXPECT_GT(conn.receiver().duplicates(), 0u)
      << "frozen copies drain from the dead queue only if it revives; the "
         "duplicates here come from go-back-N copies on the live path";
  EXPECT_EQ(conn.receiver().window_violations(), 0u);
}

TEST(Connection, TightReceiveBufferThrottlesButDelivers) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mk_spec(10e6, from_ms(10), 1.0),
                      mk_spec(10e6, from_ms(50), 1.0));  // asymmetric RTTs
  ConnectionConfig cfg;
  cfg.recv_buffer_pkts = 16;
  MptcpConnection conn(events, "mp", cc::mptcp_lia(), cfg);
  conn.add_subflow(links.fwd(0), links.rev(0));
  conn.add_subflow(links.fwd(1), links.rev(1));
  conn.start(0);
  events.run_until(from_sec(20));
  EXPECT_EQ(conn.receiver().window_violations(), 0u)
      << "sender must honour the advertised window";
  EXPECT_GT(conn.delivered_pkts(), 1000u);
}

TEST(Connection, ViewReportsLiveState) {
  EventList events;
  topo::Network net(events);
  topo::TwoLink links(net, mk_spec(10e6, from_ms(10), 1.0),
                      mk_spec(10e6, from_ms(40), 1.0));
  MptcpConnection conn(events, "mp", cc::mptcp_lia());
  conn.add_subflow(links.fwd(0), links.rev(0));
  conn.add_subflow(links.fwd(1), links.rev(1));
  conn.start(0);
  events.run_until(from_sec(5));
  EXPECT_EQ(conn.num_subflows(), 2u);
  EXPECT_GE(conn.cwnd_pkts(0), 1.0);
  EXPECT_GE(conn.cwnd_pkts(1), 1.0);
  // Base RTTs 20 ms / 80 ms plus up to one buffer's worth of queueing.
  EXPECT_NEAR(conn.srtt_sec(0), 0.03, 0.025);
  EXPECT_NEAR(conn.srtt_sec(1), 0.12, 0.09);
}

TEST(Connection, DistinctFlowIds) {
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 10e6, from_ms(5), 100 * net::kDataPacketBytes);
  auto a = test::single_tcp(events, "a", link);
  auto b = test::single_tcp(events, "b", link);
  EXPECT_NE(a->flow_id(), b->flow_id());
}

}  // namespace
}  // namespace mpsim
