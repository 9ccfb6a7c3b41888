// The two-independent-links scenario that recurs throughout the paper:
// Fig. 1 (shared-bottleneck fairness), Fig. 5/9 (dynamic load), Fig. 10
// (dual-homed server), Fig. 14/15/16 (wireless client / RTT sweep).
//
// A client M reaches a server over two disjoint bottleneck links. Each link
// may carry additional single-path competing flows. The forward direction
// is a Queue+Pipe; the ACK direction a Pipe of equal delay. A link given a
// loss probability also puts a LossyLink ahead of its queue (§2.3's
// fixed-loss WiFi/3G paths).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "topo/network.hpp"

namespace mpsim::topo {

struct LinkSpec {
  double rate_bps = 100e6;
  SimTime one_way_delay = from_ms(5);  // per direction; RTT = 2x
  std::uint64_t buf_bytes = 50 * net::kDataPacketBytes;
  std::optional<double> loss;  // random loss probability; unset = no element

  static LinkSpec pkt_rate(double pps, SimTime one_way, double bdp_mult) {
    LinkSpec s;
    s.rate_bps = pkts_per_sec_to_bps(pps);
    s.one_way_delay = one_way;
    s.buf_bytes = bdp_bytes(s.rate_bps, 2 * one_way, bdp_mult);
    return s;
  }
};

class TwoLink {
 public:
  // Seeds of the links' loss elements (§2.3's WiFi and 3G paths).
  static constexpr std::uint64_t kLossSeeds[2] = {11, 13};

  TwoLink(Network& net, const LinkSpec& link1, const LinkSpec& link2);

  // Data path over link i (0 or 1) and the matching ACK return path.
  Path fwd(int link) const;
  Path rev(int link) const;

  // The bottleneck queue of link i (loss statistics, CBR injection point).
  net::Queue& queue(int link) { return *links_[link].queue; }
  const net::Queue& queue(int link) const { return *links_[link].queue; }

 private:
  Link links_[2];
  net::Pipe* ack_pipes_[2];
  net::LossyLink* loss_[2] = {nullptr, nullptr};
};

}  // namespace mpsim::topo
