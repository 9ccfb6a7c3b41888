// Goodput measurement over a set of connections: snapshot delivered
// counters at mark(), read per-connection Mb/s later. Shared by the
// scenario engine and the tests' direct-construction references so both
// report identical numbers from identical simulations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/event_list.hpp"
#include "mptcp/connection.hpp"

namespace mpsim::stats {

// Measure the delivered goodput of each connection between warmup and end.
class GoodputMeter {
 public:
  explicit GoodputMeter(EventList& events) : events_(events) {}

  void track(const mptcp::MptcpConnection& conn) { conns_.push_back(&conn); }

  void mark();

  // Per-connection Mb/s since mark(). A zero-length measurement window
  // (mark() at measurement end, or mark() never called after time advanced)
  // yields 0.0 per connection rather than a NaN/inf rate.
  std::vector<double> mbps() const;

  double total_mbps() const;

  // Per-subflow Mb/s of tracked connection `i` since mark(), from each
  // subflow's cumulatively acknowledged packets: the path split of one
  // connection. Subflows opened after mark() count from zero.
  std::vector<double> subflow_mbps(std::size_t i) const;

  std::size_t tracked() const { return conns_.size(); }

 private:
  EventList& events_;
  std::vector<const mptcp::MptcpConnection*> conns_;
  std::vector<std::uint64_t> base_;
  std::vector<std::vector<std::uint64_t>> sub_base_;
  SimTime t0_ = 0;
};

}  // namespace mpsim::stats
