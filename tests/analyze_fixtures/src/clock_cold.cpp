// Fixture: wall-clock read in cold setup code -> determinism-clock
// (file-wide half of the union scope).
#include <chrono>

struct RunLabel {
  long long stamp = 0;

  void build() {
    stamp = std::chrono::system_clock::now().time_since_epoch().count();
  }
};
