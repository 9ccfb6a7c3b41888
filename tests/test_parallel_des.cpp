// Determinism oracle for the conservative parallel DES (core/shard.hpp):
// a sharded run must be *byte-identical* to the sequential run — same
// recorded metrics (bitwise doubles), same merged trace bytes, same event
// count — at every shard count, under every scheduler backend, in both
// execution modes (worker threads and the inline round-robin), and with
// either pipe service discipline. Each test drives the full scenario
// engine + runner + trace-merge path, so a regression anywhere in the
// window protocol, mailbox handoff, canonical keys, or trace merging
// lands here with a diffable artifact.
//
// Trace rings are pinned large enough that no ring wraps: flight-recorder
// retention is per-ring, so once any ring overwrites, sharded and
// sequential runs keep different windows of the (identical) record stream
// and byte comparison is meaningless. The oracle always compares unwrapped
// rings (see trace/trace.hpp).
#include "core/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "runner/experiment_runner.hpp"
#include "scenario/engine.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "trace/sinks.hpp"

namespace mpsim {
namespace {

// A Fig. 8-style two-link MPTCP run (tests/golden/fig8_golden.toml minus
// its [faults] section — fault injection is rejected with > 1 shard, and
// the gate has its own test below). two_link places everything on shard 0,
// so multi-shard runs of it exercise the degenerate window path: idle
// shards, no cross edges, lookahead = never.
constexpr const char* kTwoLinkSpec = R"(
[scenario]
name = "pdes_two_link"

[topology]
kind = "two_link"
link1_rate = "1Mbps"
link1_delay = "20ms"
link2_rate = "1Mbps"
link2_delay = "20ms"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
count = 1
subflows = 2

[run]
warmup = "0.5s"
measure = "2s"

[output]
metrics = ["flow_mbps", "total_mbps"]
sample_interval = "0.5s"
)";

// The real cross-shard case: FatTree pods/cores partitioned across shards,
// every aggregation<->core link a mailbox edge, permutation traffic over
// sampled multipath routes.
std::string fat_tree_spec(std::uint64_t tm_seed, int subflows) {
  std::ostringstream os;
  os << R"(
[scenario]
name = "pdes_fattree"

[topology]
kind = "fat_tree"
k = 4

[algorithm]
kind = "mptcp"

[traffic]
kind = "permutation"
tm_seed = )"
     << tm_seed << "\nsubflows = " << subflows << R"(

[run]
warmup = "20ms"
measure = "60ms"

[output]
metrics = ["total_mbps", "jain", "per_flow_mean_mbps"]
sample_interval = "20ms"
)";
  return os.str();
}

struct ShardRun {
  std::vector<std::pair<std::string, double>> values;
  std::string trace;  // merged CSV bytes
  std::uint64_t events = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing trace file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Execute the single run of `text` through the engine on `shards` shards
// and return its metrics + merged trace bytes. `tag` keeps scratch trace
// dirs distinct between invocations (file names depend only on the run
// name, which is shard-count-invariant by design).
ShardRun run_spec(const std::string& text, const std::string& tag,
                  int shards, SchedulerKind kind,
                  ShardGroup::Exec exec = ShardGroup::default_exec()) {
  namespace fs = std::filesystem;
  const scenario::Scenario scn =
      scenario::Scenario::from_string(text, tag + ".toml");
  const auto runs = scn.expand();
  EXPECT_EQ(runs.size(), 1u);

  const fs::path dir = fs::path(::testing::TempDir()) / ("pdes_" + tag);
  fs::create_directories(dir);

  runner::RunnerConfig cfg;
  cfg.threads = 1;
  cfg.scheduler = kind;
  cfg.shard_threads = shards;
  cfg.trace_sink = trace::SinkKind::kCsv;
  cfg.trace_dir = dir.string();
  cfg.trace_capacity = std::size_t{1} << 20;  // never wraps at these sizes
  runner::ExperimentRunner r(cfg);
  const scenario::ResolvedRun& resolved = runs[0];
  r.add(resolved.name, [&resolved, exec](runner::RunContext& ctx) {
    ctx.shards().set_exec_for_test(exec);
    scenario::execute_run(resolved, /*time_scale=*/1.0, ctx);
  });
  const auto results = r.run_all();
  EXPECT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].trace_path.empty());
  return {results[0].values, slurp(results[0].trace_path),
          results[0].metrics.events_processed};
}

void expect_same(const ShardRun& ref, const ShardRun& got,
                 const std::string& what) {
  EXPECT_EQ(ref.events, got.events) << what;
  ASSERT_EQ(ref.values.size(), got.values.size()) << what;
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    EXPECT_EQ(ref.values[i].first, got.values[i].first) << what;
    EXPECT_EQ(ref.values[i].second, got.values[i].second)
        << what << ": " << ref.values[i].first;
  }
  EXPECT_EQ(ref.trace, got.trace) << what << ": merged trace bytes differ";
}

TEST(ParallelDes, TwoLinkGoldenScenarioIdenticalAcrossShardsAndBackends) {
  const ShardRun ref = run_spec(kTwoLinkSpec, "tl_ref", 1,
                                SchedulerKind::kWheel);
  ASSERT_FALSE(ref.trace.empty());
  for (int shards : {1, 2, 4}) {
    for (auto kind : {SchedulerKind::kWheel, SchedulerKind::kHeap,
                      SchedulerKind::kAdaptive}) {
      const std::string tag = "tl_s" + std::to_string(shards) + "_k" +
                              std::to_string(static_cast<int>(kind));
      expect_same(ref, run_spec(kTwoLinkSpec, tag, shards, kind), tag);
    }
  }
}

TEST(ParallelDes, FatTreeCrossShardByteIdenticalAcrossShardCounts) {
  const std::string spec = fat_tree_spec(/*tm_seed=*/11, /*subflows=*/2);
  const ShardRun ref = run_spec(spec, "ft_ref", 1, SchedulerKind::kWheel);
  ASSERT_FALSE(ref.trace.empty());
  // 3 shards gives an uneven pod/core partition (4 pods, 4 cores over 3
  // shards) — the window protocol must not care.
  for (int shards : {2, 3, 4}) {
    const std::string tag = "ft_s" + std::to_string(shards);
    expect_same(ref, run_spec(spec, tag, shards, SchedulerKind::kWheel), tag);
  }
  expect_same(ref, run_spec(spec, "ft_s2_heap", 2, SchedulerKind::kHeap),
              "ft_s2_heap");
  expect_same(ref,
              run_spec(spec, "ft_s4_adaptive", 4, SchedulerKind::kAdaptive),
              "ft_s4_adaptive");
}

TEST(ParallelDes, InlineExecutionMatchesWorkerThreads) {
  // The inline round-robin runs the identical window algorithm on one
  // stack; worker threads must be unobservable relative to it.
  const std::string spec = fat_tree_spec(/*tm_seed=*/23, /*subflows=*/3);
  const ShardRun threads = run_spec(spec, "ex_threads", 4,
                                    SchedulerKind::kWheel,
                                    ShardGroup::Exec::kThreads);
  const ShardRun inline_ = run_spec(spec, "ex_inline", 4,
                                    SchedulerKind::kWheel,
                                    ShardGroup::Exec::kInline);
  expect_same(threads, inline_, "inline vs threads");
}

TEST(ParallelDes, RandomizedFatTreeTrafficIsShardCountInvariant) {
  // Property test: whatever permutation matrix and multipath degree the
  // seed produces, shard count must be unobservable.
  Rng rng(20260808);
  for (int iter = 0; iter < 3; ++iter) {
    const std::uint64_t tm_seed = 1 + rng.next_u64() % 1'000'000;
    const int subflows = 1 + static_cast<int>(rng.next_u64() % 4);
    const std::string spec = fat_tree_spec(tm_seed, subflows);
    const std::string base =
        "prop" + std::to_string(iter) + "_t" + std::to_string(tm_seed);
    const ShardRun ref = run_spec(spec, base + "_s1", 1,
                                  SchedulerKind::kWheel);
    for (int shards : {2, 3}) {
      const std::string tag = base + "_s" + std::to_string(shards);
      expect_same(ref, run_spec(spec, tag, shards, SchedulerKind::kWheel),
                  tag);
    }
  }
}

// --- engine gates: what sharding deliberately refuses -------------------

TEST(ParallelDes, FaultInjectionRejectedWhenSharded) {
  const std::string spec = std::string(kTwoLinkSpec) +
                           "\n[faults]\nscript = [\"1s down link2/q\"]\n";
  const scenario::Scenario scn =
      scenario::Scenario::from_string(spec, "gate_faults.toml");
  const auto runs = scn.expand();
  ASSERT_EQ(runs.size(), 1u);
  {
    runner::RunContext ctx("gate", SchedulerKind::kAuto, /*shard_threads=*/2);
    EXPECT_THROW(
        scenario::execute_run(runs[0], 1.0, ctx, /*dry_run=*/true),
        scenario::SpecError);
  }
  {
    // The same spec stays valid sequentially.
    runner::RunContext ctx("gate1", SchedulerKind::kAuto);
    EXPECT_NO_THROW(
        scenario::execute_run(runs[0], 1.0, ctx, /*dry_run=*/true));
  }
}

TEST(ParallelDes, DynamicTrafficRejectedWhenSharded) {
  // Churn/Poisson traffic constructs connections mid-run, which the
  // conservative windows do not order across shards; the engine must say
  // so up front rather than corrupt determinism.
  for (const char* kind : {"churn", "poisson"}) {
    const std::string spec = R"(
[scenario]
name = "gate_dyn"

[topology]
kind = "two_link"

[algorithm]
kind = "mptcp"

[traffic]
kind = ")" + std::string(kind) +
                             R"("

[run]
warmup = "100ms"
measure = "200ms"
)";
    const scenario::Scenario scn =
        scenario::Scenario::from_string(spec, "gate_dyn.toml");
    const auto runs = scn.expand();
    ASSERT_EQ(runs.size(), 1u);
    runner::RunContext ctx("gate", SchedulerKind::kAuto, /*shard_threads=*/2);
    EXPECT_THROW(
        scenario::execute_run(runs[0], 1.0, ctx, /*dry_run=*/true),
        scenario::SpecError)
        << kind;
  }
}

// --- head-armed pipe service across shard counts ------------------------

struct DirectStats {
  std::uint64_t delivered0;
  std::uint64_t delivered1;
  std::uint64_t events;

  bool operator==(const DirectStats&) const = default;
};

// A sharded FatTree simulation built directly against the C++ API (the
// same construction the scenario builders perform).
DirectStats run_fattree_direct(int shards, ShardGroup::Exec exec) {
  runner::RunContext ctx("direct", SchedulerKind::kWheel, shards);
  ctx.shards().set_exec_for_test(exec);
  topo::Network net(ctx.events(), &ctx.shards());
  topo::FatTree ft(net, 4);
  Rng rng(77);
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns;
  // Two cross-pod connections with two sampled paths each.
  for (const auto& [src, dst] : {std::pair{0, 13}, std::pair{5, 10}}) {
    auto pairs = topo::sample_path_pairs(ft, src, dst, 2, rng);
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        ft.host_events(src), "mp" + std::to_string(src), cc::mptcp_lia());
    for (auto& pr : pairs) {
      conn->add_subflow(std::move(pr.first), std::move(pr.second));
    }
    conn->start(0);
    conns.push_back(std::move(conn));
  }
  ctx.run_until(from_ms(60));
  return {conns[0]->delivered_pkts(), conns[1]->delivered_pkts(),
          ctx.shards().events_processed()};
}

TEST(ParallelDes, PipeServiceBitIdenticalAcrossShardCounts) {
  // Head-armed pipe wakes interleave with mailbox drains when sharded;
  // neither may change what the simulation computes.
  const DirectStats ref = run_fattree_direct(1, ShardGroup::Exec::kInline);
  EXPECT_GT(ref.delivered0, 0u);
  EXPECT_GT(ref.delivered1, 0u);
  for (int shards : {1, 2, 4}) {
    EXPECT_EQ(ref, run_fattree_direct(shards, ShardGroup::Exec::kInline))
        << shards << " shards";
  }
}

// Micro property: a batch delivery never reorders same-time ties. Packets
// entering one pipe in some order at the same instant leave in that order,
// and two pipes' same-time deliveries interleave by canonical key
// (construction id).
class OrderSink final : public net::PacketSink {
 public:
  OrderSink(std::string name, std::vector<std::pair<SimTime, std::uint64_t>>& log,
            EventList& events)
      : name_(std::move(name)), log_(&log), events_(&events) {}

  void receive(net::Packet& pkt) override {
    log_->emplace_back(events_->now(), pkt.subflow_seq);
    pkt.release();
  }
  const std::string& sink_name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::pair<SimTime, std::uint64_t>>* log_;
  EventList* events_;
};

TEST(ParallelDes, BatchBoundariesPreserveSameTimeTieOrder) {
  EventList events(SchedulerKind::kHeap);
  net::Pipe p1(events, "p1", from_us(50));
  net::Pipe p2(events, "p2", from_us(50));
  std::vector<std::pair<SimTime, std::uint64_t>> log;
  OrderSink s1("s1", log, events);
  OrderSink s2("s2", log, events);
  net::Route r1({&p1, &s1});
  net::Route r2({&p2, &s2});
  // Interleave 16 same-time sends across the two pipes: all 16 arrive at
  // exactly t=50us, so dispatch order is decided purely by the canonical
  // (order id, seq) keys.
  for (std::uint64_t i = 0; i < 16; ++i) {
    net::Packet& pkt = net::Packet::alloc(events);
    pkt.subflow_seq = i;
    pkt.send_on(i % 2 == 0 ? r1 : r2);
  }
  events.run_all();
  ASSERT_EQ(log.size(), 16u);
  // All of pipe 1's packets (even seqs) drain before pipe 2's (odd seqs):
  // p1 was constructed first, so its canonical keys sort lower; within a
  // pipe, FIFO by seq.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(log[i].second, 2 * i) << "pipe 1 tie order broken at " << i;
    EXPECT_EQ(log[8 + i].second, 2 * i + 1)
        << "pipe 2 tie order broken at " << i;
  }
}

}  // namespace
}  // namespace mpsim
