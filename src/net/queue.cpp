#include "net/queue.hpp"

#include <cmath>
#include <utility>

#include "core/check.hpp"

namespace mpsim::net {

Queue::Queue(EventList& events, std::string name, double rate_bps,
             std::uint64_t max_bytes)
    : EventSource(events, std::move(name)),
      events_(events),
      rate_bps_(rate_bps),
      max_bytes_(max_bytes),
      hot_id_(SimArena::of(events).add_queue()),
      h_(SimArena::of(events).queue(hot_id_)) {
  MPSIM_CHECK(rate_bps_ > 0, "queue service rate must be positive");
  trace_ = trace::TraceRecorder::find(events);
  if (trace_ != nullptr) {
    trace_id_ = trace_->register_object(EventSource::name());
  }
}

void Queue::receive(Packet& pkt) {
  MPSIM_CHECK(h_.queued_bytes <= max_bytes_,
              "queue occupancy exceeds buffer capacity");
  ++h_.arrivals;
  if (h_.queued_bytes + pkt.size_bytes > max_bytes_) {
    ++h_.drops;
    MPSIM_TRACE(trace_,
                trace::queue_drop(events_.now(), trace_id_, pkt.flow_id,
                                  pkt.subflow_id, h_.queued_bytes,
                                  pkt.size_bytes));
    pkt.release();
    return;
  }
  h_.queued_bytes += pkt.size_bytes;
  // Intrusive PacketFifo: links through the packet's embedded pointers,
  // no heap allocation despite the container-idiom name.
  // mpsim-analyze: allow(hot-alloc)
  fifo_.push_back(pkt);
  MPSIM_TRACE(trace_, trace::queue_sample(events_.now(), trace_id_,
                                          h_.queued_bytes, queued_packets()));
  if (!busy_ && rate_bps_ > 0.0) start_service();
}

void Queue::start_service() {
  MPSIM_CHECK(!busy_ && !fifo_.empty(),
              "start_service needs an idle server and a waiting packet");
  busy_ = true;
  in_service_ = fifo_.pop_front();
  service_done_at_ = events_.now() + service_time(*in_service_);
  events_.schedule_at(*this, service_done_at_);
  fraction_done_ = 0.0;
  fraction_as_of_ = events_.now();
}

void Queue::set_rate(double rate_bps) {
  MPSIM_CHECK(rate_bps >= 0.0, "link rate must be non-negative");
  const SimTime now = events_.now();
  if (busy_) {
    // Bank progress made at the old rate before switching.
    if (rate_bps_ > 0.0) {
      const double total = static_cast<double>(
          from_sec(static_cast<double>(in_service_->size_bytes) * 8.0 /
                   rate_bps_));
      // A rate so high the whole packet serializes in under 1 ns truncates
      // `total` to 0; dividing by it would poison fraction_done_ with
      // NaN/inf and reschedule_head would cast that to SimTime (UB). A
      // sub-ns transmission is simply finished.
      if (total > 0.0) {
        fraction_done_ += static_cast<double>(now - fraction_as_of_) / total;
      } else {
        fraction_done_ = 1.0;
      }
      if (fraction_done_ > 1.0) fraction_done_ = 1.0;
    }
    fraction_as_of_ = now;
  }
  rate_bps_ = rate_bps;
  MPSIM_TRACE(trace_, trace::rate_change(now, trace_id_, rate_bps_));
  if (busy_) {
    reschedule_head();
  } else if (rate_bps_ > 0.0 && !fifo_.empty()) {
    start_service();
  }
}

void Queue::reschedule_head() {
  MPSIM_CHECK(busy_, "reschedule_head requires a packet in service");
  if (rate_bps_ == 0.0) {
    service_done_at_ = kNever;  // frozen; stale wake-ups self-discard
    return;
  }
  const double total = static_cast<double>(from_sec(
      static_cast<double>(in_service_->size_bytes) * 8.0 / rate_bps_));
  const double remaining = (1.0 - fraction_done_) * total;
  MPSIM_CHECK(std::isfinite(remaining) && remaining >= 0.0,
              "drain-time computation produced a non-finite or negative "
              "remaining service time");
  service_done_at_ = events_.now() + static_cast<SimTime>(remaining);
  events_.schedule_at(*this, service_done_at_);
}

void Queue::on_event() {
  // Lazy-cancellation guard: set_rate reschedules completions when the
  // rate changes, which can leave stale wake-ups in the heap.
  if (!busy_ || events_.now() < service_done_at_) return;
  Packet* pkt = in_service_;
  MPSIM_CHECK(pkt != nullptr, "busy queue must have a packet in service");
  in_service_ = nullptr;
  busy_ = false;
  MPSIM_CHECK(h_.queued_bytes >= pkt->size_bytes,
              "queue byte accounting underflow on departure");
  h_.queued_bytes -= pkt->size_bytes;
  ++h_.departures;
  h_.bytes_forwarded += pkt->size_bytes;
  MPSIM_TRACE(trace_, trace::queue_sample(events_.now(), trace_id_,
                                          h_.queued_bytes, queued_packets()));
  if (!fifo_.empty() && rate_bps_ > 0.0) start_service();
  pkt->advance();
}

std::size_t Queue::drop_waiting(std::size_t max_pkts) {
  std::size_t dropped = 0;
  while (dropped < max_pkts && !fifo_.empty()) {
    Packet* pkt = fifo_.pop_back();
    MPSIM_CHECK(h_.queued_bytes >= pkt->size_bytes,
                "queue byte accounting underflow on fault drop");
    h_.queued_bytes -= pkt->size_bytes;
    ++h_.drops;
    ++dropped;
    MPSIM_TRACE(trace_,
                trace::queue_drop(events_.now(), trace_id_, pkt->flow_id,
                                  pkt->subflow_id, h_.queued_bytes,
                                  pkt->size_bytes));
    pkt->release();
  }
  if (dropped > 0) {
    MPSIM_TRACE(trace_, trace::queue_sample(events_.now(), trace_id_,
                                            h_.queued_bytes, queued_packets()));
  }
  return dropped;
}

void Queue::reset_stats() {
  h_.arrivals = 0;
  h_.drops = 0;
  h_.departures = 0;
  h_.bytes_forwarded = 0;
}

RateSchedule::RateSchedule(EventList& events, Queue& target,
                           std::vector<Change> changes)
    : EventSource(events, "rate-schedule[" + target.sink_name() + "]"),
      events_(events),
      target_(target),
      changes_(std::move(changes)) {
  if (!changes_.empty()) events_.schedule_at(*this, changes_.front().at);
}

void RateSchedule::on_event() {
  while (next_ < changes_.size() && changes_[next_].at <= events_.now()) {
    target_.set_rate(changes_[next_].rate_bps);
    ++next_;
  }
  if (next_ < changes_.size()) {
    events_.schedule_at(*this, changes_[next_].at);
  }
}

}  // namespace mpsim::net
