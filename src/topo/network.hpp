// Element factory/owner for building topologies.
//
// A Network owns queues, pipes and loss elements; topology classes use it
// to assemble directed links and hand out Paths (ordered element lists) for
// connections to ride. A unidirectional "link" is a Queue (serialization +
// buffering) feeding a Pipe (propagation).
//
// ACK return paths in the experiment topologies are pipes only: 40-byte
// ACKs at the data rates simulated here load the reverse direction by under
// 3%, and none of the paper's scenarios congest the ACK direction. This
// halves the event count of every experiment.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "core/shard.hpp"
#include "fault/fault.hpp"
#include "net/boundary.hpp"
#include "net/cbr.hpp"
#include "net/lossy_link.hpp"
#include "net/packet.hpp"
#include "net/pipe.hpp"
#include "net/queue.hpp"

namespace mpsim::topo {

using Path = std::vector<net::PacketSink*>;

// (forward, ACK-return) element lists for one subflow.
using PathPair = std::pair<Path, Path>;

// One direction of a link. `boundary` is non-null for links built by the
// shard-aware path (FatTree): the route hops are then queue + boundary and
// the pipe sits behind the boundary, fed by receive_shipped (see
// net/boundary.hpp); classic links put queue + pipe on the route directly.
struct Link {
  net::Queue* queue = nullptr;
  net::Pipe* pipe = nullptr;
  net::BoundarySink* boundary = nullptr;
};

class Network {
 public:
  explicit Network(EventList& events) : events_(events) {}
  // Shard-aware network: elements may be placed on any of the group's
  // shards; `events` is the default (shard 0) for the classic overloads.
  Network(EventList& events, ShardGroup* group)
      : events_(events), group_(group) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventList& events() { return events_; }

  ShardGroup* shard_group() { return group_; }
  int shards() const { return group_ != nullptr ? group_->size() : 1; }
  // True when elements actually live on more than one shard's EventList —
  // the condition scenario::Engine gates dynamic traffic and faults on.
  bool multi_shard() const { return group_ != nullptr && group_->multi(); }
  // The EventList of shard `i` (modulo nothing — callers map their own
  // structure to shard indices). Without a group every index is the one
  // sequential EventList, so shard-aware builders need no special case.
  EventList& shard_events(int i) {
    return group_ != nullptr ? group_->shard(i) : events_;
  }

  net::Queue& add_queue(const std::string& name, double rate_bps,
                        std::uint64_t buf_bytes) {
    return add_queue(events_, name, rate_bps, buf_bytes);
  }

  net::Queue& add_queue(EventList& events, const std::string& name,
                        double rate_bps, std::uint64_t buf_bytes) {
    queues_.push_back(
        std::make_unique<net::Queue>(events, name, rate_bps, buf_bytes));
    faults_.add_queue(name, *queues_.back());
    return *queues_.back();
  }

  net::Pipe& add_pipe(const std::string& name, SimTime delay) {
    return add_pipe(events_, name, delay);
  }

  net::Pipe& add_pipe(EventList& events, const std::string& name,
                      SimTime delay) {
    pipes_.push_back(std::make_unique<net::Pipe>(events, name, delay));
    return *pipes_.back();
  }

  // Boundary in front of `pipe`, receiving on `src_events`' shard. Builds
  // the inline (same-shard) variant when source and pipe share an
  // EventList, the mailbox variant otherwise — so topology code calls this
  // unconditionally and the element graph is identical at any shard count.
  net::BoundarySink& add_boundary(const std::string& name,
                                  EventList& src_events, net::Pipe& pipe,
                                  int dst_shard) {
    if (&src_events == &pipe.events()) {
      boundaries_.push_back(
          std::make_unique<net::BoundarySink>(name, src_events, pipe));
    } else {
      MPSIM_CHECK(group_ != nullptr,
                  "cross-shard boundary requires a ShardGroup");
      boundaries_.push_back(std::make_unique<net::BoundarySink>(
          name, src_events, pipe, *group_, dst_shard));
    }
    return *boundaries_.back();
  }

  net::LossyLink& add_lossy(const std::string& name, double loss_prob,
                            std::uint64_t seed) {
    lossy_.push_back(
        std::make_unique<net::LossyLink>(name, loss_prob, seed));
    faults_.add_lossy(name, *lossy_.back());
    return *lossy_.back();
  }

  // Queue -> Pipe pair modelling one direction of a link.
  Link add_link(const std::string& name, double rate_bps, SimTime delay,
                std::uint64_t buf_bytes) {
    Link link;
    link.queue = &add_queue(name + "/q", rate_bps, buf_bytes);
    link.pipe = &add_pipe(name + "/p", delay);
    return link;
  }

  // Shard-aware link: queue on the source node's shard, pipe on the
  // destination node's, and a boundary between them that ships departures
  // across (or hands them straight through when both shards coincide —
  // including every link of an ungrouped Network, where shard_events()
  // always returns the same list). Routes built from such a link hop
  // queue -> boundary; the pipe is reached via receive_shipped and its
  // advance() continues with the hop after the boundary.
  Link add_link(const std::string& name, double rate_bps, SimTime delay,
                std::uint64_t buf_bytes, int src_shard, int dst_shard) {
    Link link;
    link.queue =
        &add_queue(shard_events(src_shard), name + "/q", rate_bps, buf_bytes);
    link.pipe = &add_pipe(shard_events(dst_shard), name + "/p", delay);
    link.boundary = &add_boundary(name + "/b", shard_events(src_shard),
                                  *link.pipe, dst_shard);
    return link;
  }

  // Fault-target name -> element map, populated as elements are built.
  fault::TargetRegistry& fault_targets() { return faults_; }
  const fault::TargetRegistry& fault_targets() const { return faults_; }

 private:
  EventList& events_;
  ShardGroup* group_ = nullptr;
  fault::TargetRegistry faults_;
  std::vector<std::unique_ptr<net::Queue>> queues_;
  std::vector<std::unique_ptr<net::Pipe>> pipes_;
  std::vector<std::unique_ptr<net::LossyLink>> lossy_;
  std::vector<std::unique_ptr<net::BoundarySink>> boundaries_;
};

// Path assembly helpers. A boundary-style link routes queue -> boundary
// (the pipe is behind the boundary, not a hop); a classic link routes
// queue -> pipe.
inline void append_link(Path& path, const Link& link) {
  path.push_back(link.queue);
  if (link.boundary != nullptr) {
    path.push_back(link.boundary);
  } else {
    path.push_back(link.pipe);
  }
}

inline Path path_of(std::initializer_list<const Link*> links) {
  Path p;
  for (const Link* l : links) append_link(p, *l);
  return p;
}

// Buffer sizing helper: `bdp_multiple` bandwidth-delay products, in bytes.
// A product of kMaxBdpBytes or more saturates there instead of overflowing.
inline constexpr std::uint64_t kMaxBdpBytes = std::uint64_t{1} << 62;

inline std::uint64_t bdp_bytes(double rate_bps, SimTime rtt,
                               double bdp_multiple = 1.0) {
  const double bytes = rate_bps / 8.0 * to_sec(rtt) * bdp_multiple;
  if (!(bytes < 0x1p62)) return kMaxBdpBytes;
  return static_cast<std::uint64_t>(bytes) + net::kDataPacketBytes;
}

inline double pkts_per_sec_to_bps(double pps) {
  return pps * net::kDataPacketBytes * 8.0;
}

}  // namespace mpsim::topo
