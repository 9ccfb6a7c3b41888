// Example: seamless WiFi <-> 3G handover (§5 scenario, Fig. 17).
//
// A mobile client downloads over WiFi and 3G simultaneously. Mid-transfer
// the WiFi link dies (walked out of coverage) and later returns. The
// MPTCP connection never breaks: stranded packets are reinjected on the
// 3G subflow after the retransmission timeout, the data stream keeps
// advancing, and when WiFi returns the connection re-expands onto it —
// no application-visible reconnect, which is precisely what today's
// "switch interfaces by killing connections" heuristics cannot do.
//
// Run: ./wireless_handover
// With MPSIM_TRACE=csv the run also writes trace_wireless_handover.csv —
// every cwnd sample, rate change, reinjection and drop of the handover,
// ready for plotting (see README "Flight recorder").
#include <cstdio>

#include "cc/mptcp_lia.hpp"
#include "example_trace.hpp"
#include "mptcp/connection.hpp"
#include "net/queue.hpp"
#include "stats/monitors.hpp"
#include "topo/network.hpp"

int main() {
  using namespace mpsim;
  EventList events;
  examples::ExampleTrace et(events, "wireless_handover");
  topo::Network net(events);

  // WiFi: 14.4 Mb/s, 20 ms RTT, shallow buffer.
  auto& wifi_q = net.add_queue("wifi", 14.4e6, 25 * net::kDataPacketBytes);
  auto& wifi_pipe = net.add_pipe("wifi/p", from_ms(10));
  auto& wifi_ack = net.add_pipe("wifi/a", from_ms(10));
  // 3G: 2.1 Mb/s, 100 ms base RTT, deep buffer (overbuffered, as measured
  // in the paper).
  auto& g3_q = net.add_queue("3g", 2.1e6, 200 * net::kDataPacketBytes);
  auto& g3_pipe = net.add_pipe("3g/p", from_ms(50));
  auto& g3_ack = net.add_pipe("3g/a", from_ms(50));

  mptcp::MptcpConnection conn(events, "mobile", cc::mptcp_lia());
  conn.add_subflow({&wifi_q, &wifi_pipe}, {&wifi_ack});
  conn.add_subflow({&g3_q, &g3_pipe}, {&g3_ack});
  conn.start(0);

  // Walk out of WiFi coverage at t=20 s, back at t=40 s.
  net::RateSchedule wifi_coverage(events, wifi_q,
                                  {{from_sec(20), 0.0},
                                   {from_sec(40), 14.4e6}});

  std::printf("time   WiFi-subflow   3G-subflow   total (Mb/s)\n");
  for (int t = 5; t <= 60; t += 5) {
    const std::uint64_t wprev = conn.subflow(0).packets_acked();
    const std::uint64_t gprev = conn.subflow(1).packets_acked();
    events.run_until(from_sec(t));
    const double wifi = stats::pkts_to_mbps(
        conn.subflow(0).packets_acked() - wprev, from_sec(5));
    const double g3 = stats::pkts_to_mbps(
        conn.subflow(1).packets_acked() - gprev, from_sec(5));
    const char* note = (t > 20 && t <= 40) ? "   <- WiFi outage" : "";
    std::printf("%3d s   %10.2f   %10.2f   %6.2f%s\n", t, wifi, g3,
                wifi + g3, note);
  }

  std::printf("\nconnection survived the outage: %llu packets delivered "
              "in order, %llu reinjected duplicates, %llu WiFi timeouts\n",
              static_cast<unsigned long long>(conn.receiver().delivered()),
              static_cast<unsigned long long>(conn.receiver().duplicates()),
              static_cast<unsigned long long>(conn.subflow(0).timeouts()));

  et.write();
  return 0;
}
