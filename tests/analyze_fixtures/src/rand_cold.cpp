// Fixture: unseeded randomness in cold setup code -> determinism-rand
// (file-wide half of the union scope).
#include <cstdlib>

struct SeedPicker {
  void build() { srand(7); }
};
