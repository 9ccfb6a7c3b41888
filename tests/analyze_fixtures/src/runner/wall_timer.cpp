// Fixture (negative control): src/runner/ measures host wall time, so a
// clock read in its cold code is exempt from determinism-clock.
#include <chrono>

struct WallTimer {
  std::chrono::steady_clock::time_point t0;

  void start() { t0 = std::chrono::steady_clock::now(); }
};
