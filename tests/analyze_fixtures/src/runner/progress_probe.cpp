// Fixture: a clock read in an event handler under src/runner/ ->
// determinism-clock. The path exemption covers cold code only; the hot half
// of the union scope still applies.
#include <chrono>

struct ProgressProbe {
  long long last_ns = 0;

  void on_event() {
    last_ns = std::chrono::steady_clock::now().time_since_epoch().count();
  }
};
