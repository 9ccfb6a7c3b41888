// Fixture: unseeded randomness inside an event handler -> determinism-rand
// (hot half of the union scope).
#include <cstdlib>

struct JitterSource {
  int jitter = 0;

  void on_event() {
    jitter = rand() % 7;
  }
};
