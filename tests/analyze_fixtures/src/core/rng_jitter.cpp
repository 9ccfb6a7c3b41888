// Fixture: a <random> engine in an event handler under core/rng ->
// determinism-rand. The path exemption covers cold code only; the hot half
// of the union scope still applies.
#include <random>

struct RngJitter {
  unsigned jitter = 0;

  void on_event() {
    std::mt19937 gen(42);
    jitter = static_cast<unsigned>(gen() % 7);
  }
};
