#include "stats/goodput.hpp"

#include "stats/monitors.hpp"

namespace mpsim::stats {

void GoodputMeter::mark() {
  t0_ = events_.now();
  base_.clear();
  sub_base_.clear();
  // clear() keeps capacity, so only the first mark() allocates; marks are
  // measurement-window granularity anyway, not per packet.
  for (const auto* c : conns_) {
    // mpsim-analyze: allow(hot-alloc)
    base_.push_back(c->delivered_pkts());
    // mpsim-analyze: allow(hot-alloc)
    std::vector<std::uint64_t>& subs = sub_base_.emplace_back();
    for (std::size_t r = 0; r < c->num_subflows(); ++r) {
      // mpsim-analyze: allow(hot-alloc)
      subs.push_back(c->subflow(r).packets_acked());
    }
  }
}

std::vector<double> GoodputMeter::mbps() const {
  std::vector<double> out;
  const SimTime elapsed = events_.now() - t0_;
  if (elapsed <= 0) {
    out.assign(conns_.size(), 0.0);
    return out;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    out.push_back(pkts_to_mbps(conns_[i]->delivered_pkts() - base_[i],
                               elapsed));
  }
  return out;
}

std::vector<double> GoodputMeter::subflow_mbps(std::size_t i) const {
  const mptcp::MptcpConnection& c = *conns_[i];
  std::vector<double> out(c.num_subflows(), 0.0);
  const SimTime elapsed = events_.now() - t0_;
  if (elapsed <= 0) return out;
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::uint64_t base = r < sub_base_[i].size() ? sub_base_[i][r] : 0;
    out[r] = pkts_to_mbps(c.subflow(r).packets_acked() - base, elapsed);
  }
  return out;
}

double GoodputMeter::total_mbps() const {
  double total = 0.0;
  for (double v : mbps()) total += v;
  return total;
}

}  // namespace mpsim::stats
