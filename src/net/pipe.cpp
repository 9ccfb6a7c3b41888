#include "net/pipe.hpp"

#include "core/check.hpp"

namespace mpsim::net {

Pipe::Pipe(EventList& events, std::string name, SimTime delay)
    : EventSource(events, std::move(name)),
      events_(events),
      delay_(delay) {
  MPSIM_CHECK(delay_ >= 0, "propagation delay must be non-negative");
}

void Pipe::admit(Packet& pkt, SimTime deliver_at) {
  MPSIM_CHECK(deliver_at >= events_.now(),
              "pipe delivery must not precede the local clock");
  MPSIM_CHECK(in_flight_.empty() || deliver_at >= in_flight_.back()->link_due,
              "pipe deliveries must stay FIFO");
  const bool was_empty = in_flight_.empty();
  pkt.link_due = deliver_at;
  // Intrusive PacketFifo: links through the packet's embedded pointers,
  // no heap allocation despite the container-idiom name.
  // mpsim-analyze: allow(hot-alloc)
  in_flight_.push_back(pkt);
  // Head-armed: one pending wake per pipe, at the head's delivery time;
  // on_event re-arms after each batch, so a push onto a non-empty fifo
  // never needs to schedule.
  if (was_empty) events_.schedule_at(*this, deliver_at);
}

void Pipe::receive(Packet& pkt) { admit(pkt, events_.now() + delay_); }

void Pipe::receive_shipped(Packet& pkt, SimTime sent_at) {
  admit(pkt, sent_at + delay_);
}

void Pipe::on_event() {
  MPSIM_CHECK(!in_flight_.empty(), "pipe wake-up with nothing in flight");
  // Deliver the entire due-now prefix, then re-arm at the new head. A
  // delivery's downstream effects may push more packets onto this pipe at
  // the same instant (zero-delay paths); the loop re-tests the head so
  // those go out in this same dispatch — exactly where their canonical
  // keys would have dispatched them with one wake per packet (key
  // adjacency).
  MPSIM_CHECK(in_flight_.front()->link_due == events_.now(),
              "pipe delivery must fire exactly on time");
  while (!in_flight_.empty() &&
         in_flight_.front()->link_due == events_.now()) {
    in_flight_.pop_front()->advance();
  }
  if (!in_flight_.empty()) {
    events_.schedule_at(*this, in_flight_.front()->link_due);
  }
}

}  // namespace mpsim::net
