// Shared plumbing for the perf benches (bench_micro_core, bench_pacing,
// bench_fattree_shard): duration scaling, the runner thread cap and the
// banner. They time the simulator's own machinery; every paper figure is
// a spec in examples/scenarios/, run by `mpsim run` (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "core/env.hpp"
#include "core/event_list.hpp"
#include "json_report.hpp"
#include "mptcp/connection.hpp"
#include "runner/experiment_runner.hpp"
#include "stats/monitors.hpp"
#include "stats/table.hpp"
#include "topo/network.hpp"

namespace mpsim::bench {

// Scale factor for simulated durations: MPSIM_BENCH_SCALE=0.2 runs the
// whole harness 5x faster (noisier numbers), =1 is the default reported
// configuration.
inline double time_scale() {
  return env::env_double("MPSIM_BENCH_SCALE", 1.0, 0.0);
}

// MPSIM_THREADS caps the ExperimentRunner thread pool for multi-run benches
// (0 = hardware concurrency; 1 = fully sequential).
inline unsigned env_threads() {
  return static_cast<unsigned>(env::env_int("MPSIM_THREADS", 0, 0, 1 << 20));
}

inline SimTime scaled(double seconds) {
  return from_sec(seconds * time_scale());
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper reference: %s\n\n", paper_ref.c_str());
}

}  // namespace mpsim::bench
