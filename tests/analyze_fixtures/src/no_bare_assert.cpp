// Fixture: bare assert() -> no-bare-assert.
#include <cassert>

struct Ledger {
  int balance = 0;

  void check() { assert(balance >= 0); }
};
