// Fixture: hand-scaled SimTime unit factor in an event handler ->
// simtime-discipline.
using SimTime = long long;

struct Rescheduler {
  SimTime next = 0;

  void on_event() {
    const double seconds = 0.25;
    next = static_cast<SimTime>(seconds * 1e9);
  }
};
