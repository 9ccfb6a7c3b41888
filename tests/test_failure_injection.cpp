// Failure injection: outages at awkward moments, lossy ACK paths, link
// flapping — the robustness margin beyond the paper's scripted scenarios.
// The FaultMatrix suite at the bottom sweeps every congestion controller
// through the fault engine's canonical disruptions.
#include <gtest/gtest.h>

#include <tuple>

#include "cc/balia.hpp"
#include "cc/coupled.hpp"
#include "cc/coupled_bbr.hpp"
#include "cc/ewtcp.hpp"
#include "cc/mptcp_lia.hpp"
#include "cc/olia.hpp"
#include "cc/rfc6356.hpp"
#include "cc/semicoupled.hpp"
#include "cc/uncoupled.hpp"
#include "core/check.hpp"
#include "fault/fault.hpp"
#include "mptcp/connection.hpp"
#include "net/lossy_link.hpp"
#include "net/queue.hpp"
#include "sim_fixtures.hpp"
#include "topo/network.hpp"

namespace mpsim {
namespace {

using mptcp::ConnectionConfig;
using mptcp::MptcpConnection;
using test::SingleLink;

TEST(FailureInjection, OutageDuringSlowStart) {
  // The link dies while the very first window is in flight: the flow must
  // neither crash nor stall forever.
  EventList events;
  topo::Network net(events);
  SingleLink link(net, 10e6, from_ms(10), 100 * net::kDataPacketBytes, "v");
  auto tcp = mptcp::make_single_path_tcp(events, "t", link.fwd(), link.rev());
  tcp->start(0);
  events.run_until(from_ms(25));  // mid slow start
  link.queue().set_rate(0.0);
  events.run_until(from_sec(5));
  link.queue().set_rate(10e6);
  events.run_until(from_sec(15));
  EXPECT_GT(tcp->subflow(0).timeouts(), 0u);
  EXPECT_GT(tcp->delivered_pkts(), 5000u) << "must recover to full speed";
  EXPECT_EQ(tcp->receiver().window_violations(), 0u);
}

TEST(FailureInjection, LossyAckPathStillDeliversEverything) {
  // 10% of ACKs vanish. Cumulative acking absorbs that: later ACKs cover
  // earlier ones and the stream completes.
  EventList events;
  topo::Network net(events);
  auto link = net.add_link("l", 10e6, from_ms(10),
                           topo::bdp_bytes(10e6, from_ms(20)));
  auto& ack_loss = net.add_lossy("ackloss", 0.10, 4242);
  auto& ack_pipe = net.add_pipe("ackpipe", from_ms(10));
  ConnectionConfig cfg;
  cfg.app_limit_pkts = 5000;
  auto tcp = mptcp::make_single_path_tcp(
      events, "t", topo::path_of({&link}), {&ack_loss, &ack_pipe}, cfg);
  tcp->start(0);
  events.run_until(from_sec(60));
  EXPECT_TRUE(tcp->complete());
  EXPECT_EQ(tcp->receiver().data_cum_ack(), 5000u);
}

TEST(FailureInjection, BothPathsDieAndRevive) {
  EventList events;
  topo::Network net(events);
  SingleLink l1(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "l1");
  SingleLink l2(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "l2");
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(l1.fwd(), l1.rev());
  mp.add_subflow(l2.fwd(), l2.rev());
  mp.start(0);
  events.run_until(from_sec(3));
  l1.queue().set_rate(0.0);
  l2.queue().set_rate(0.0);
  events.run_until(from_sec(10));
  const auto during = mp.delivered_pkts();
  l1.queue().set_rate(10e6);
  l2.queue().set_rate(10e6);
  events.run_until(from_sec(25));
  EXPECT_GT(mp.delivered_pkts(), during + 15000u)
      << "full two-link speed after total blackout";
  EXPECT_EQ(mp.receiver().window_violations(), 0u);
}

TEST(FailureInjection, FlappingLink) {
  // One path flaps every 2 seconds; the connection should ride the stable
  // path at full speed throughout and opportunistically use the flapper.
  EventList events;
  topo::Network net(events);
  SingleLink stable(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes,
                    "stable");
  SingleLink flappy(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes,
                    "flappy");
  std::vector<net::RateSchedule::Change> changes;
  for (int i = 1; i <= 20; ++i) {
    changes.push_back({from_sec(2 * i), (i % 2 == 1) ? 0.0 : 10e6});
  }
  net::RateSchedule sched(events, flappy.queue(), std::move(changes));
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(stable.fwd(), stable.rev());
  mp.add_subflow(flappy.fwd(), flappy.rev());
  mp.start(0);
  events.run_until(from_sec(40));
  // Stable path alone at ~10 Mb/s for 40 s ~= 33k packets; require at
  // least 90% of that despite the flapping sibling.
  EXPECT_GT(mp.delivered_pkts(), 30000u);
  EXPECT_EQ(mp.receiver().window_violations(), 0u);
  // The flapper carried some traffic during its up periods.
  EXPECT_GT(mp.subflow(1).packets_acked(), 1000u);
}

TEST(FailureInjection, DeadFromBirthSubflowDoesNotPoisonConnection) {
  // One path never works at all (rate 0 from the start).
  EventList events;
  topo::Network net(events);
  SingleLink good(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes,
                  "good");
  SingleLink dead(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "dead");
  dead.queue().set_rate(0.0);
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(good.fwd(), good.rev());
  mp.add_subflow(dead.fwd(), dead.rev());
  mp.start(0);
  events.run_until(from_sec(20));
  EXPECT_GT(mp.delivered_pkts(), 14000u)
      << "the good path must run at ~ full speed";
  EXPECT_GT(mp.subflow(1).timeouts(), 0u);
}

TEST(FailureInjection, PacketPoolBalancedAfterChaos) {
  EventList events;
  const std::size_t base = net::Packet::pool_outstanding(events);
  {
    topo::Network net(events);
    SingleLink l1(net, 10e6, from_ms(10), 20 * net::kDataPacketBytes, "l1");
    auto& lossy = net.add_lossy("loss", 0.05, 5);
    auto& pipe = net.add_pipe("p2", from_ms(30));
    auto& ack2 = net.add_pipe("a2", from_ms(30));
    ConnectionConfig cfg;
    cfg.app_limit_pkts = 3000;
    MptcpConnection mp(events, "mp", cc::mptcp_lia(), cfg);
    mp.add_subflow(l1.fwd(), l1.rev());
    mp.add_subflow({&lossy, &pipe}, {&ack2});
    mp.start(0);
    events.run_until(from_sec(2));
    l1.queue().set_rate(0.0);
    events.run_until(from_sec(4));
    l1.queue().set_rate(10e6);
    events.run_until(from_sec(60));
    EXPECT_TRUE(mp.complete());
    events.run_all();  // drain every in-flight packet and timer
  }
  EXPECT_EQ(net::Packet::pool_outstanding(events), base)
      << "every allocated packet must return to the pool";
}

// ---------------------------------------------------------------------------
// Fault matrix: every congestion controller x every canonical disruption,
// driven through the fault engine (not ad-hoc set_rate calls) so the same
// code paths the scenario [faults] section uses are exercised. Runs under
// throwing checks: the per-ACK LIA eq. (1) increase bound and every other
// runtime invariant must hold through the churn, not just at the end.
// ---------------------------------------------------------------------------

struct MatrixAlgo {
  std::string label;
  const cc::CongestionControl* algo;
};

enum class FaultKind {
  kSlowStartOutage,  // path 2 dies while the first window is in flight
  kFlapTrain,        // path 2 flaps on a fixed cadence
  kLossBurst,        // path 2 suffers a 30% loss episode
  kPathDeath,        // path 2 dies for good
};

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kSlowStartOutage: return "SlowStartOutage";
    case FaultKind::kFlapTrain: return "FlapTrain";
    case FaultKind::kLossBurst: return "LossBurst";
    case FaultKind::kPathDeath: return "PathDeath";
  }
  return "?";
}

fault::FaultPlan matrix_plan(FaultKind kind) {
  fault::FaultPlan plan;
  auto ev = [](SimTime t, fault::Action a, const char* target, double value,
               SimTime duration = 0) {
    fault::FaultEvent e;
    e.at = t;
    e.action = a;
    e.target = target;
    e.value = value;
    e.duration = duration;
    return e;
  };
  switch (kind) {
    case FaultKind::kSlowStartOutage:
      plan.events = {ev(from_ms(25), fault::Action::kDown, "l2/q", -1.0),
                     ev(from_sec(3), fault::Action::kUp, "l2/q", -1.0)};
      break;
    case FaultKind::kFlapTrain:
      plan.events = fault::flap_train("l2/q", from_sec(1), from_sec(2),
                                      from_ms(500), 6);
      break;
    case FaultKind::kLossBurst:
      plan.events = {ev(from_sec(2), fault::Action::kLossBurst, "l2/loss",
                        0.30, from_sec(2))};
      break;
    case FaultKind::kPathDeath:
      plan.events = {ev(from_sec(2), fault::Action::kDown, "l2/q", -1.0)};
      break;
  }
  return plan;
}

class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<MatrixAlgo, FaultKind>> {};

TEST_P(FaultMatrix, SurvivesDisruptionWithoutStallOrInvariantBreach) {
  const MatrixAlgo& a = std::get<0>(GetParam());
  const FaultKind kind = std::get<1>(GetParam());
  ScopedThrowingChecks throwing;  // invariant breach => CheckFailureError

  EventList events;
  topo::Network net(events);
  SingleLink l1(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "l1");
  // Path 2 carries a (normally silent) lossy element so the loss-burst
  // fault has something to act on.
  auto& l2_loss = net.add_lossy("l2/loss", 0.0, 77);
  SingleLink l2(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "l2");

  MptcpConnection mp(events, "mp", *a.algo);
  mp.add_subflow(l1.fwd(), l1.rev());
  mp.add_subflow({&l2_loss, l2.link.queue, l2.link.pipe}, l2.rev());
  net.fault_targets().add_connection("mp", mp);
  mp.start(0);

  fault::RecoveryMonitor recovery(events, from_ms(1));
  recovery.track(mp);
  fault::FaultInjector injector(events, net.fault_targets(),
                               matrix_plan(kind), /*run_seed=*/7, &recovery);

  events.run_until(from_sec(25));
  const std::uint64_t late = mp.delivered_pkts();
  events.run_until(from_sec(30));
  recovery.finalize();

  EXPECT_GT(injector.events_applied(), 0u) << a.label;
  // No permanent stall: the stable path alone is worth ~10 Mb/s, so the
  // last five seconds must still move thousands of packets...
  EXPECT_GT(mp.delivered_pkts(), late + 2000u)
      << a.label << "/" << fault_kind_name(kind) << " stalled";
  // ...and the 30 s total must be well past single-path floor.
  EXPECT_GT(mp.delivered_pkts(), 10000u)
      << a.label << "/" << fault_kind_name(kind);
  EXPECT_EQ(mp.receiver().window_violations(), 0u) << a.label;

  if (kind == FaultKind::kSlowStartOutage || kind == FaultKind::kFlapTrain) {
    // Every completed outage must be observed, and recovery must follow.
    EXPECT_GE(recovery.outages(), 1u) << a.label;
    EXPECT_GE(recovery.recoveries(), 1u) << a.label;
    EXPECT_GT(recovery.mean_ttr_sec(), 0.0) << a.label;
    EXPECT_GT(recovery.degraded_sec(), 0.0) << a.label;
  }
  if (kind == FaultKind::kPathDeath) {
    // The dead path was noticed (RTOs), and the stream kept flowing on the
    // survivor regardless.
    EXPECT_GT(mp.subflow(1).timeouts(), 0u) << a.label;
    EXPECT_GE(recovery.outages(), 1u) << a.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllFaults, FaultMatrix,
    ::testing::Combine(
        ::testing::Values(MatrixAlgo{"uncoupled", &cc::uncoupled()},
                          MatrixAlgo{"ewtcp", &cc::ewtcp()},
                          MatrixAlgo{"semicoupled", &cc::semicoupled()},
                          MatrixAlgo{"coupled", &cc::coupled()},
                          MatrixAlgo{"mptcp", &cc::mptcp_lia()},
                          MatrixAlgo{"rfc6356", &cc::rfc6356()},
                          MatrixAlgo{"olia", &cc::olia()},
                          MatrixAlgo{"balia", &cc::balia()},
                          MatrixAlgo{"coupled_bbr", &cc::coupled_bbr()}),
        ::testing::Values(FaultKind::kSlowStartOutage, FaultKind::kFlapTrain,
                          FaultKind::kLossBurst, FaultKind::kPathDeath)),
    [](const ::testing::TestParamInfo<std::tuple<MatrixAlgo, FaultKind>>&
           info) {
      return std::get<0>(info.param).label + std::string("_") +
             fault_kind_name(std::get<1>(info.param));
    });

TEST(FailureInjection, Section6DeadlockRegression) {
  // §6 of the paper: a tiny shared receive buffer, a dying subflow with
  // data outstanding, and opportunistic reinjection racing the RTO. The
  // failure mode this guards against is a deadlock where the window is
  // full of data stranded on the dead path, the receive buffer cannot
  // admit the retransmissions, and the data-level cumulative ACK stops
  // forever. Progress (cum-ACK advance within bounded sim time) must hold.
  ScopedThrowingChecks throwing;
  EventList events;
  topo::Network net(events);
  SingleLink fast(net, 10e6, from_ms(10), 50 * net::kDataPacketBytes, "fast");
  // The doomed path is slow and long-delay so it strands a chunk of the
  // sequence space when it dies.
  SingleLink doomed(net, 2e6, from_ms(80), 50 * net::kDataPacketBytes,
                    "doomed");
  ConnectionConfig cfg;
  cfg.recv_buffer_pkts = 16;  // §6-small: flow control binds hard
  cfg.app_limit_pkts = 4000;
  MptcpConnection mp(events, "mp", cc::mptcp_lia(), cfg);
  mp.add_subflow(fast.fwd(), fast.rev());
  mp.add_subflow(doomed.fwd(), doomed.rev());
  net.fault_targets().add_connection("mp", mp);
  mp.start(0);

  fault::FaultPlan plan;
  fault::FaultEvent down;
  down.at = from_ms(700);  // with data in flight on both paths
  down.action = fault::Action::kDown;
  down.target = "doomed/q";
  fault::FaultEvent reset;  // and kick the dead subflow's RTO state too
  reset.at = from_ms(900);
  reset.action = fault::Action::kReset;
  reset.target = "mp";
  reset.count = 1;
  plan.events = {down, reset};
  fault::FaultInjector injector(events, net.fault_targets(), plan,
                               /*run_seed=*/3);

  events.run_until(from_ms(1000));
  const std::uint64_t ack_at_kill = mp.receiver().data_cum_ack();
  // Bounded-time progress: within every subsequent 2 s window the
  // data-level cumulative ACK must advance until the stream completes.
  std::uint64_t prev = ack_at_kill;
  for (int window = 0; window < 15 && !mp.complete(); ++window) {
    events.run_until(from_ms(1000) + from_sec(2 * (window + 1)));
    const std::uint64_t now_ack = mp.receiver().data_cum_ack();
    EXPECT_GT(now_ack, prev)
        << "cum-ACK stalled in window " << window << " (deadlock)";
    if (now_ack == prev) break;
    prev = now_ack;
  }
  EXPECT_TRUE(mp.complete()) << "stream never finished: cum-ACK stuck at "
                             << prev << " of " << cfg.app_limit_pkts;
  EXPECT_EQ(mp.receiver().window_violations(), 0u);
  EXPECT_GT(mp.scheduler().reinjected_total(), 0u)
      << "the race this test guards requires reinjection to fire";
  EXPECT_GT(injector.events_applied(), 0u);
}

}  // namespace
}  // namespace mpsim
