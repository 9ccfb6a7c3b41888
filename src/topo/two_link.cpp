#include "topo/two_link.hpp"

namespace mpsim::topo {

TwoLink::TwoLink(Network& net, const LinkSpec& link1, const LinkSpec& link2) {
  const LinkSpec* specs[2] = {&link1, &link2};
  for (int i = 0; i < 2; ++i) {
    const std::string base = "link" + std::to_string(i + 1);
    if (specs[i]->loss) {
      loss_[i] =
          &net.add_lossy(base + "/loss", *specs[i]->loss, kLossSeeds[i]);
    }
    links_[i] = net.add_link(base, specs[i]->rate_bps,
                             specs[i]->one_way_delay, specs[i]->buf_bytes);
    ack_pipes_[i] = &net.add_pipe(base + "/ack", specs[i]->one_way_delay);
  }
}

Path TwoLink::fwd(int link) const {
  Path p = path_of({&links_[link]});
  if (loss_[link] != nullptr) p.insert(p.begin(), loss_[link]);
  return p;
}

Path TwoLink::rev(int link) const { return {ack_pipes_[link]}; }

}  // namespace mpsim::topo
