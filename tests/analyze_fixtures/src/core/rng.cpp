// Fixture (negative control): core/rng owns the seeded generator, so a
// <random> engine in its cold code is exempt from determinism-rand.
#include <random>

struct RngSeeder {
  unsigned long long first = 0;

  void seed(unsigned long long s) {
    std::mt19937_64 gen(s);
    first = gen();
  }
};
