// Single-path TCP behaviour: the subflow machinery (slow start, congestion
// avoidance, fast retransmit, RTO, go-back-N) exercised end-to-end over a
// real simulated link via a one-subflow connection.
#include "tcp/subflow.hpp"

#include <gtest/gtest.h>

#include "cc/uncoupled.hpp"
#include "core/check.hpp"
#include "mptcp/connection.hpp"
#include "sim_fixtures.hpp"
#include "stats/monitors.hpp"
#include "topo/network.hpp"

namespace mpsim {
namespace {

using mptcp::ConnectionConfig;
using mptcp::MptcpConnection;
using test::SingleLink;

TEST(Subflow, SlowStartDoublesPerRtt) {
  EventList events;
  topo::Network net(events);
  // Fat link: no losses during the test window. RTT = 20 ms.
  SingleLink link(net, 1e9, from_ms(10), 10'000'000);
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  // After ~5 RTTs of slow start from cwnd=2: 2,4,8,16,32...
  events.run_until(from_ms(95));
  EXPECT_GE(tcp->subflow(0).cwnd(), 32.0);
  EXPECT_LE(tcp->subflow(0).cwnd(), 128.0);
}

TEST(Subflow, DeliversInOrderStream) {
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 10e6, from_ms(5), 50 * net::kDataPacketBytes);
  ConnectionConfig cfg;
  cfg.app_limit_pkts = 500;
  auto tcp = test::single_tcp(events, "t", link, cfg);
  tcp->start(0);
  events.run_until(from_sec(10));
  EXPECT_TRUE(tcp->complete());
  EXPECT_EQ(tcp->receiver().delivered(), 500u);
  EXPECT_EQ(tcp->receiver().window_violations(), 0u);
}

TEST(Subflow, ThroughputApproachesLinkRate) {
  EventList events;
  topo::Network net(events);
  // 10 Mb/s, RTT 20 ms, 1 BDP buffer.
  SingleLink link(net, 10e6, from_ms(10), topo::bdp_bytes(10e6, from_ms(20)));
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  events.run_until(from_sec(1));  // warm up
  const std::uint64_t before = tcp->receiver().delivered();
  events.run_until(from_sec(11));
  const double mbps =
      stats::pkts_to_mbps(tcp->receiver().delivered() - before, from_sec(10));
  EXPECT_GT(mbps, 8.5) << "NewReno should utilise >85% of the bottleneck";
  EXPECT_LT(mbps, 10.1);
}

TEST(Subflow, LossesTriggerFastRetransmitNotTimeout) {
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 10e6, from_ms(10), topo::bdp_bytes(10e6, from_ms(20)));
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  events.run_until(from_sec(20));
  EXPECT_GT(tcp->subflow(0).loss_events(), 5u)
      << "sawtooth must hit the buffer limit repeatedly";
  EXPECT_GT(tcp->subflow(0).retransmits(), 0u);
  // The initial slow-start overshoot may punch enough holes that the
  // RFC 6582 Impatient rule cuts that one recovery short with an RTO;
  // steady-state sawtooth losses must all be handled by fast retransmit.
  EXPECT_LE(tcp->subflow(0).timeouts(), 1u)
      << "steady-state drop-tail losses are recoverable via dupacks";
}

TEST(Subflow, CwndSawtoothStaysNearBdp) {
  EventList events;
  topo::Network net(events);
  const double rate = 10e6;
  SingleLink link(net, rate, from_ms(10),
                  topo::bdp_bytes(rate, from_ms(20)));
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  events.run_until(from_sec(15));
  // BDP = 10e6/8 * 0.02 / 1500 ~= 16.7 pkts; with 1 BDP of buffer the
  // congestion window oscillates between ~BDP and ~2 BDP. The sample
  // instant is an arbitrary phase of the sawtooth, and mid-recovery the
  // reported cwnd is inflated by one per dupack (RFC 5681), so the
  // instantaneous ceiling is ssthresh + ~2 BDP ~= 3 BDP, not 2 BDP.
  const double w = tcp->subflow(0).cwnd();
  EXPECT_GT(w, 8.0);
  EXPECT_LT(w, 52.0);
}

TEST(Subflow, RttEstimateMatchesPathRtt) {
  EventList events;
  topo::Network net(events);
  // Half a BDP of buffering keeps queueing delay below 25 ms.
  SingleLink link(net, 100e6, from_ms(25),
                  topo::bdp_bytes(100e6, from_ms(50), 0.5));
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  events.run_until(from_sec(2));
  // Base RTT 50 ms plus up to ~25 ms of queueing.
  const double srtt_ms = to_ms(tcp->subflow(0).rtt().srtt());
  EXPECT_GE(srtt_ms, 49.0);
  EXPECT_LE(srtt_ms, 80.0);
}

TEST(Subflow, OutageCausesRtoAndRecovery) {
  EventList events;
  topo::Network net(events);
  auto& vq = net.add_queue("v", 10e6, 100 * net::kDataPacketBytes);
  auto& pipe = net.add_pipe("p", from_ms(5));
  auto& ack = net.add_pipe("a", from_ms(5));
  auto tcp = mptcp::make_single_path_tcp(events, "t", {&vq, &pipe}, {&ack});
  tcp->start(0);
  events.run_until(from_sec(2));
  const auto delivered_before = tcp->receiver().delivered();
  // 3-second outage.
  vq.set_rate(0.0);
  events.run_until(from_sec(5));
  vq.set_rate(10e6);
  events.run_until(from_sec(9));
  EXPECT_GT(tcp->subflow(0).timeouts(), 0u);
  EXPECT_GT(tcp->receiver().delivered(), delivered_before + 1000u)
      << "flow must resume after the outage";
  EXPECT_EQ(tcp->receiver().window_violations(), 0u);
}

TEST(Subflow, BackoffDoublesRtoDuringPersistentOutage) {
  EventList events;
  topo::Network net(events);
  auto& vq = net.add_queue("v", 10e6, 100 * net::kDataPacketBytes);
  auto& pipe = net.add_pipe("p", from_ms(5));
  auto& ack = net.add_pipe("a", from_ms(5));
  auto tcp = mptcp::make_single_path_tcp(events, "t", {&vq, &pipe}, {&ack});
  tcp->start(0);
  events.run_until(from_sec(1));
  vq.set_rate(0.0);
  events.run_until(from_sec(30));
  const auto timeouts = tcp->subflow(0).timeouts();
  // Exponential backoff: ~200ms, 400, 800, ... => only a handful of RTOs
  // in 29 s rather than ~145 at a constant 200 ms.
  EXPECT_GE(timeouts, 3u);
  EXPECT_LE(timeouts, 12u);
}

// Regression: arm_rto() computed `rtt_.rto() << shift` before clamping to
// max_rto. With a large base RTO a backoff shift of only 3 overflows signed
// SimTime (UB); the wrapped-negative value won the std::min against max_rto
// and put the retransmission deadline in the past. The shift is now
// saturated against max_rto before it is applied.
TEST(Subflow, RtoBackoffSaturatesInsteadOfOverflowing) {
  ScopedThrowingChecks guard;  // a past-deadline schedule becomes a throw
  EventList events;
  topo::Network net(events);
  auto& vq = net.add_queue("v", 10e6, 100 * net::kDataPacketBytes);
  auto& pipe = net.add_pipe("p", from_ms(5));
  auto& ack = net.add_pipe("a", from_ms(5));
  // Base RTO pinned at 2e18 ns: 2e18 << 3 wraps negative in int64. The
  // clamp must instead hold every backed-off RTO at max_rto.
  constexpr SimTime kHugeRto = 2'000'000'000'000'000'000;
  ConnectionConfig cfg;
  cfg.subflow.min_rto = kHugeRto;
  cfg.subflow.max_rto = kHugeRto;
  auto tcp = mptcp::make_single_path_tcp(events, "t", {&vq, &pipe}, {&ack},
                                         cfg);
  tcp->start(0);
  vq.set_rate(0.0);  // blackhole from the first transmission: RTOs only
  // Timeouts land at 1x, 2x, 3x kHugeRto (saturated — not 1x, 3x, 7x
  // doubled). Pre-fix, arming after the third timeout computes a negative
  // RTO and trips "cannot schedule in the past".
  EXPECT_NO_THROW(events.run_until(7 * (kHugeRto / 2)));
  EXPECT_EQ(tcp->subflow(0).timeouts(), 3u);
}

TEST(Subflow, CompletionCallbackFires) {
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 10e6, from_ms(5), 50 * net::kDataPacketBytes);
  ConnectionConfig cfg;
  cfg.app_limit_pkts = 50;
  auto tcp = test::single_tcp(events, "t", link, cfg);
  bool done = false;
  tcp->on_complete = [&] { done = true; };
  tcp->start(from_ms(100));
  events.run_until(from_sec(5));
  EXPECT_TRUE(done);
  EXPECT_GT(tcp->completed_at(), tcp->started_at());
}

TEST(Subflow, TwoFlowsShareBottleneckFairly) {
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 10e6, from_ms(10), topo::bdp_bytes(10e6, from_ms(20)));
  auto a = test::single_tcp(events, "a", link);
  auto b = test::single_tcp(events, "b", link);
  a->start(0);
  b->start(from_ms(37));  // desynchronise
  events.run_until(from_sec(5));
  const auto da = a->receiver().delivered();
  const auto db = b->receiver().delivered();
  events.run_until(from_sec(45));
  const double ra = static_cast<double>(a->receiver().delivered() - da);
  const double rb = static_cast<double>(b->receiver().delivered() - db);
  EXPECT_NEAR(ra / (ra + rb), 0.5, 0.13)
      << "long-run NewReno shares within ~25%";
}

TEST(Subflow, KarnRuleNoRttSampleFromRetransmits) {
  // A path with heavy random loss and huge propagation: if retransmitted
  // segments were sampled, SRTT would be wildly inflated. We check SRTT
  // stays near the true RTT despite many retransmissions.
  EventList events;
  topo::Network net(events);
  auto& lossy = net.add_lossy("loss", 0.05, 42);
  auto& q = net.add_queue("q", 100e6, 1'000'000);
  auto& pipe = net.add_pipe("p", from_ms(50));
  auto& ack = net.add_pipe("a", from_ms(50));
  auto tcp =
      mptcp::make_single_path_tcp(events, "t", {&lossy, &q, &pipe}, {&ack});
  tcp->start(0);
  events.run_until(from_sec(30));
  EXPECT_GT(tcp->subflow(0).retransmits(), 10u);
  EXPECT_NEAR(to_ms(tcp->subflow(0).rtt().srtt()), 100.0, 20.0);
}

}  // namespace
}  // namespace mpsim
