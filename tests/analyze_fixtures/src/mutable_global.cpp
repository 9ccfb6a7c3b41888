// Fixture: mutable namespace-scope state -> mutable-global. The const,
// atomic and thread_local declarations are the rule's own exceptions, and
// the allow comment suppresses the line below it (so it is not stale).
#include <atomic>

const int kLimit = 4;
std::atomic<int> g_started{0};
thread_local int t_scratch = 0;
int g_drops = 0;
// mpsim-analyze: allow(mutable-global) — fixture: a used allow
int g_tolerated = 0;
