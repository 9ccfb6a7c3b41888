// Fixture (negative control): net/packet.cpp implements the pool, so its
// raw allocation is exempt from pool-discipline.
#include <cstdlib>

struct PacketSlab {
  void* chunk = nullptr;

  void grow(unsigned long bytes) {
    free(chunk);
    chunk = malloc(bytes);
  }
};
