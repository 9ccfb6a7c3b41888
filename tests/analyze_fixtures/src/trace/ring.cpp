// Fixture (negative control): src/trace/ implements the recorder, so a
// direct append_unchecked() there is exempt from trace-discipline.
struct TraceRecord {};
struct TraceRecorder {
  void append_unchecked(const TraceRecord& r);
};

void flush_one(TraceRecorder& rec) { rec.append_unchecked(TraceRecord{}); }
