// Fixture: a direct append_unchecked() outside src/trace/ ->
// trace-discipline.
#include "trace/trace.hpp"

struct Instrumented {
  mpsim::trace::TraceRecorder* rec = nullptr;

  void note(const mpsim::trace::TraceRecord& r) { rec->append_unchecked(r); }
};
