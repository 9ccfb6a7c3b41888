// layer_probe — the benchmark's layer probe for scenario specs.
//
//   layer_probe [--scale=X] [--shard-threads=N] [--trace=csv|off]
//               [--trace-dir=D] --layers=OUT.json <spec.toml>...
//
// Runs each spec the way `mpsim run` does, but through the public layer
// calls one at a time: Scenario::load / expand / validate, the registry's
// topology, algorithm and traffic builders, RunContext::run_until for
// warmup and for measure, the trace flush and the JSON report. A
// steady_clock span is taken around each call, and once a run ends every
// layer's public counters are read. Runs execute one after another on the
// calling thread, as `mpsim run --threads=1` does.
//
// Stdout is byte-for-byte what `mpsim run --threads=1` prints for the same
// arguments, and the BENCH_scenario_<name>.json and trace files it writes
// match mpsim's except for wall-clock fields. perfbench/run.py compares all
// three, so the probe cannot drift from the engine unnoticed. The layer
// spans and counters, summed over every run, go to OUT.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/event_list.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "scenario/engine.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"
#include "stats/goodput.hpp"
#include "stats/json.hpp"
#include "stats/summary.hpp"
#include "topo/network.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mpsim;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-layer spans (seconds) and counters, summed over every run.
struct Layers {
  double load_s = 0, validate_s = 0, topo_build_s = 0, traffic_build_s = 0;
  double warmup_run_s = 0, measure_run_s = 0, trace_flush_s = 0;
  double report_s = 0, sim_s = 0;
  std::uint64_t runs = 0, queues = 0, connections = 0;
  std::uint64_t events = 0, pending_at_warmup = 0, scheduler_switches = 0;
  std::uint64_t hops = 0, drops = 0, pool_allocs = 0, pool_peak_pkts = 0;
  std::uint64_t pkts_sent = 0, retransmits = 0, timeouts = 0,
                loss_events = 0;
  std::uint64_t delivered_pkts = 0, rcv_packets = 0, rcv_duplicates = 0,
                acks_sent = 0, reinjected = 0, hol_reinjections = 0;
  std::uint64_t fault_events_applied = 0;
  std::uint64_t trace_records = 0, trace_overwritten = 0;
  std::int64_t shards = 1;
  double lookahead_us = 0;
  std::vector<double> shard_events;  // per shard, summed over runs

  stats::Json to_json() const {
    stats::Json o = stats::Json::object();
    auto num = [&o](const char* k, double v) { o.set(k, v); };
    auto cnt = [&o](const char* k, std::uint64_t v) {
      o.set(k, static_cast<double>(v));
    };
    num("scenario_load_s", load_s);
    num("scenario_validate_s", validate_s);
    cnt("scenario_runs", runs);
    num("topo_build_s", topo_build_s);
    cnt("topo_queues", queues);
    num("traffic_build_s", traffic_build_s);
    cnt("traffic_connections", connections);
    num("core_warmup_run_s", warmup_run_s);
    num("core_measure_run_s", measure_run_s);
    num("core_sim_s", sim_s);
    cnt("core_events", events);
    cnt("core_pending_at_warmup", pending_at_warmup);
    cnt("core_scheduler_switches", scheduler_switches);
    cnt("net_hops", hops);
    cnt("net_drops", drops);
    cnt("net_pool_allocs", pool_allocs);
    cnt("net_pool_peak_pkts", pool_peak_pkts);
    cnt("tcp_pkts_sent", pkts_sent);
    cnt("tcp_retransmits", retransmits);
    cnt("tcp_timeouts", timeouts);
    cnt("tcp_loss_events", loss_events);
    cnt("mptcp_delivered_pkts", delivered_pkts);
    cnt("mptcp_rcv_packets", rcv_packets);
    cnt("mptcp_rcv_duplicates", rcv_duplicates);
    cnt("mptcp_acks_sent", acks_sent);
    cnt("mptcp_reinjected", reinjected);
    cnt("mptcp_hol_reinjections", hol_reinjections);
    cnt("fault_events_applied", fault_events_applied);
    cnt("trace_records", trace_records);
    cnt("trace_overwritten", trace_overwritten);
    num("trace_flush_s", trace_flush_s);
    num("shard_count", static_cast<double>(shards));
    num("shard_lookahead_us", lookahead_us);
    o.set("shard_events", stats::Json::array_of(shard_events));
    num("runner_report_s", report_s);
    return o;
  }
};

struct Options {
  int shard_threads = 1;
  double scale = 1.0;
  trace::SinkKind sink = trace::SinkKind::kNone;
  std::string trace_dir = ".";
  std::string layers_path;
  std::vector<std::string> specs;
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag, std::string& out) {
      if (arg.rfind(flag, 0) != 0) return false;
      out = arg.substr(std::strlen(flag));
      return true;
    };
    std::string v;
    std::int64_t n = 0;
    if (value_of("--shard-threads=", v)) {
      if (!env::parse_int(v, n) || n < 1 || n > (1 << 10)) return false;
      opts.shard_threads = static_cast<int>(n);
    } else if (value_of("--scale=", v)) {
      if (!env::parse_double(v, opts.scale) || !(opts.scale > 0.0)) {
        return false;
      }
    } else if (value_of("--trace=", v)) {
      if (v == "csv") {
        opts.sink = trace::SinkKind::kCsv;
      } else if (v != "off") {
        return false;
      }
    } else if (value_of("--trace-dir=", v)) {
      opts.trace_dir = v;
    } else if (value_of("--layers=", v)) {
      opts.layers_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      opts.specs.push_back(arg);
    }
  }
  return !opts.specs.empty() && !opts.layers_path.empty();
}

// runner::ExperimentRunner's file-name rule for trace_<run>.<ext>.
std::string sanitize_for_filename(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
    if (!ok) c = '_';
  }
  return name;
}

// The [output] metrics scenario::execute_run records.
void record_metrics(const std::vector<std::string>& names,
                    const scenario::Section* out,
                    const std::vector<const mptcp::MptcpConnection*>& conns,
                    const std::vector<double>& mbps,
                    const std::vector<net::Queue*>& queues,
                    runner::RunContext& ctx) {
  double total = 0.0;
  for (double v : mbps) total += v;
  for (const std::string& m : names) {
    if (m == "flow_mbps") {
      for (std::size_t i = 0; i < conns.size(); ++i) {
        ctx.record("mbps_" + conns[i]->name(), mbps[i]);
      }
    } else if (m == "total_mbps") {
      ctx.record("total_mbps", total);
    } else if (m == "jain") {
      ctx.record("jain", stats::jain_index(mbps));
    } else if (m == "per_flow_mean_mbps") {
      ctx.record("per_flow_mean_mbps",
                 conns.empty() ? 0.0
                               : total / static_cast<double>(conns.size()));
    } else if (m.rfind("loss_ratio:", 0) == 0) {
      const std::string rest = m.substr(11);
      const std::size_t colon = rest.find(':');
      const std::size_t a = std::stoul(rest.substr(0, colon));
      const std::size_t b = std::stoul(rest.substr(colon + 1));
      const double pa = queues.at(a)->loss_rate();
      const double pb = queues.at(b)->loss_rate();
      ctx.record("loss_ratio_" + std::to_string(a) + "_" + std::to_string(b),
                 pb > 0 ? pa / pb : 0.0);
    } else if (out != nullptr) {
      out->fail("layer_probe: unsupported metric '" + m + "'");
    }
  }
}

// One grid point: scenario::execute_run's sequence, with a span around
// each layer call and the layer counters read at the end.
void probe_run(const scenario::ResolvedRun& run, double scale,
               runner::RunContext& ctx, Layers& L) {
  const scenario::Spec& spec = run.spec;
  spec.mark_all_unused();
  if (const scenario::Section* scn = spec.find_section("scenario")) {
    scn->get_string("name", "");
  }
  if (const scenario::Section* sweep = spec.find_section("sweep")) {
    for (const auto& [key, value] : sweep->entries()) sweep->find(key);
  }
  const scenario::Section& run_sec = spec.require_section("run");
  scenario::BuildEnv env;
  env.time_scale = scale;
  env.scale_starts = run_sec.get_bool("scale_starts", false);
  env.path_manager = spec.find_section("path_manager");
  env.scheduler = spec.find_section("scheduler");
  const SimTime warmup = env.scaled(run_sec.get_time("warmup"));
  const SimTime measure = env.scaled(run_sec.get_time("measure"));
  run_sec.find("seeds");

  std::vector<std::string> metric_names = {"flow_mbps", "total_mbps"};
  const scenario::Section* out = spec.find_section("output");
  if (out != nullptr) {
    if (out->has("metrics")) metric_names = out->get_string_array("metrics");
    if (out->get_time("sample_interval", 0) > 0) {
      out->fail("layer_probe: [output] sample_interval is not supported");
    }
    out->find("trace");
    out->find("trace_capacity");
  }

  const scenario::Registry& reg = scenario::builtin_registry();
  topo::Network net(ctx.events(), &ctx.shards());
  const scenario::Section& topo_sec = spec.require_section("topology");
  auto t0 = Clock::now();
  auto topology = reg.topology(topo_sec.get_string("kind"), topo_sec)(
      net, topo_sec, env);
  L.topo_build_s += since(t0);

  stats::GoodputMeter meter(ctx.events());
  const scenario::Section& algo_sec = spec.require_section("algorithm");
  scenario::AlgorithmInstance algo =
      reg.algorithm(algo_sec.get_string("kind"), algo_sec)(algo_sec);

  const scenario::Section& traffic_sec = spec.require_section("traffic");
  t0 = Clock::now();
  auto traffic =
      reg.traffic(traffic_sec.get_string("kind"), traffic_sec)(traffic_sec);
  scenario::seed_poisson_model(*traffic, run.seed);
  Rng rng(run.seed);
  traffic->build(ctx.events(), *topology, algo, rng, env);
  L.traffic_build_s += since(t0);
  const auto conns = traffic->connections();
  for (const auto* c : conns) meter.track(*c);

  for (auto* c : traffic->mutable_connections()) {
    net.fault_targets().add_connection(c->name(), *c);
  }
  scenario::ParsedFaults faults;
  const scenario::Section* faults_sec = spec.find_section("faults");
  if (faults_sec != nullptr) {
    faults = scenario::parse_fault_plan(*faults_sec, net.fault_targets(),
                                        env);
  }
  spec.check_all_used();

  std::unique_ptr<fault::RecoveryMonitor> recovery;
  std::unique_ptr<fault::FaultInjector> injector;
  if (!faults.plan.empty()) {
    recovery = std::make_unique<fault::RecoveryMonitor>(
        ctx.events(), faults.recovery_poll);
    for (const auto* c : conns) recovery->track(*c);
    injector = std::make_unique<fault::FaultInjector>(
        ctx.events(), net.fault_targets(), faults.plan, run.seed,
        recovery.get());
  }

  // Every queue the network built, not only the topology's bottlenecks.
  std::vector<const net::Queue*> all_queues;
  for (const fault::Target& t : net.fault_targets().targets()) {
    if (t.queue != nullptr) all_queues.push_back(t.queue);
  }
  const auto bottlenecks = topology->queues();

  t0 = Clock::now();
  ctx.run_until(warmup);
  L.warmup_run_s += since(t0);
  ShardGroup& grp = ctx.shards();
  for (int s = 0; s < grp.size(); ++s) {
    L.pending_at_warmup += grp.shard(s).pending();
  }
  // reset_stats() zeroes the bottlenecks' counters; bank their warmup work.
  for (const net::Queue* q : bottlenecks) {
    L.hops += q->arrivals();
    L.drops += q->drops();
  }
  for (auto* q : bottlenecks) q->reset_stats();
  meter.mark();
  std::vector<std::uint64_t> delivered_at_mark;
  for (const auto* c : conns) delivered_at_mark.push_back(c->delivered_pkts());

  t0 = Clock::now();
  ctx.run_until(warmup + measure);
  L.measure_run_s += since(t0);

  record_metrics(metric_names, out, conns, meter.mbps(), bottlenecks, ctx);
  traffic->record_metrics(ctx);
  if (injector != nullptr) {
    recovery->finalize();
    std::uint64_t reinjections = 0;
    for (const auto* c : conns) {
      reinjections += c->scheduler().reinjected_total();
    }
    ctx.record("fault_events_applied",
               static_cast<double>(injector->events_applied()));
    ctx.record("fault_outages", static_cast<double>(recovery->outages()));
    ctx.record("fault_recoveries",
               static_cast<double>(recovery->recoveries()));
    ctx.record("fault_ttr_mean_s", recovery->mean_ttr_sec());
    ctx.record("fault_ttr_max_s", recovery->max_ttr_sec());
    ctx.record("fault_degraded_sec", recovery->degraded_sec());
    ctx.record("fault_degraded_goodput_fraction",
               recovery->degraded_goodput_fraction());
    ctx.record("fault_reinjections", static_cast<double>(reinjections));
    L.fault_events_applied += injector->events_applied();
  }
  ctx.annotate("algorithm", algo.name);
  if (env.scheduler != nullptr) {
    ctx.annotate("data_scheduler",
                 env.scheduler->get_string("kind", "stripe"));
  }
  for (const auto& [k, v] : run.point) ctx.annotate(k, v);

  // Layer counters, read once the run is over.
  L.runs += 1;
  L.sim_s += to_sec(warmup + measure);
  L.queues += all_queues.size();
  L.connections += conns.size();
  for (const net::Queue* q : all_queues) {
    L.hops += q->arrivals();
    L.drops += q->drops();
  }
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const mptcp::MptcpConnection& c = *conns[i];
    L.delivered_pkts += c.delivered_pkts() - delivered_at_mark[i];
    L.rcv_packets += c.receiver().packets_received();
    L.rcv_duplicates += c.receiver().duplicates();
    L.acks_sent += c.receiver().acks_sent();
    L.reinjected += c.scheduler().reinjected_total();
    L.hol_reinjections += c.hol_reinjections();
    for (std::size_t r = 0; r < c.num_subflows(); ++r) {
      const tcp::Subflow& sf = c.subflow(r);
      L.pkts_sent += sf.packets_sent();
      L.retransmits += sf.retransmits();
      L.timeouts += sf.timeouts();
      L.loss_events += sf.loss_events();
    }
  }
}

// mpsim run's stdout block for one scenario.
void print_results(const std::string& scenario_name,
                   const std::vector<runner::RunResult>& results) {
  std::printf("== %s ==\n", scenario_name.c_str());
  for (const runner::RunResult& r : results) {
    std::printf("run %s\n", r.name.c_str());
    if (!r.metrics.scheduler.empty()) {
      std::printf("  # scheduler = %s", r.metrics.scheduler.c_str());
      if (r.metrics.scheduler == "adaptive") {
        std::printf(" (switches=%llu)", static_cast<unsigned long long>(
                                            r.metrics.scheduler_switches));
      }
      std::printf("\n");
    }
    for (const auto& [k, v] : r.annotations) {
      std::printf("  # %s = %s\n", k.c_str(), v.c_str());
    }
    for (const auto& [k, v] : r.values) {
      std::printf("  %s = %.10g\n", k.c_str(), v);
    }
    if (!r.trace_path.empty()) {
      std::printf("  trace = %s\n", r.trace_path.c_str());
    }
  }
  std::fflush(stdout);
}

void probe_spec(const std::string& path, const Options& opts, Layers& L) {
  auto t0 = Clock::now();
  const scenario::Scenario scn = scenario::Scenario::load(path);
  L.load_s += since(t0);
  t0 = Clock::now();
  scn.validate(opts.scale);
  L.validate_s += since(t0);

  // --trace overrides the spec, as it does for `mpsim run`.
  const trace::SinkKind sink = opts.sink;
  if (sink != trace::SinkKind::kNone && opts.shard_threads > 1) {
    throw std::invalid_argument("layer_probe: tracing a sharded run is not "
                                "supported");
  }
  trace::TraceRecorder::Config tc;
  if (scn.spec_trace_capacity() > 0) tc.capacity = scn.spec_trace_capacity();

  std::vector<runner::RunResult> results;
  for (const scenario::ResolvedRun& run : scn.expand()) {
    runner::RunContext ctx(run.name, SchedulerKind::kAuto,
                           opts.shard_threads);
    ShardGroup& grp = ctx.shards();
    // As the runner does: the recorder exists before anything is built.
    if (sink != trace::SinkKind::kNone) {
      trace::TraceRecorder::install(ctx.events(), tc);
    }

    t0 = Clock::now();
    probe_run(run, opts.scale, ctx, L);
    runner::RunResult r;
    r.metrics.wall_seconds = since(t0);
    r.name = ctx.name();
    r.values = ctx.values();
    r.annotations = ctx.annotations();

    if (sink != trace::SinkKind::kNone) {
      t0 = Clock::now();
      auto out = trace::make_sink(sink);
      const trace::TraceRecorder* rec =
          trace::TraceRecorder::find(ctx.events());
      L.trace_records += rec->total_records();
      L.trace_overwritten += rec->overwritten();
      rec->flush(*out);
      const std::string file = opts.trace_dir + "/trace_" +
                               sanitize_for_filename(ctx.name()) +
                               trace::sink_extension(sink);
      if (trace::write_text_file(file, out->text())) r.trace_path = file;
      L.trace_flush_s += since(t0);
    }

    r.metrics.events_processed = grp.events_processed();
    r.metrics.events_per_sec =
        r.metrics.wall_seconds > 0.0
            ? static_cast<double>(r.metrics.events_processed) /
                  r.metrics.wall_seconds
            : 0.0;
    L.shards = grp.size();
    L.lookahead_us = grp.multi() ? to_sec(grp.lookahead()) * 1e6 : 0.0;
    L.shard_events.resize(static_cast<std::size_t>(grp.size()), 0.0);
    for (int s = 0; s < grp.size(); ++s) {
      EventList& ev = grp.shard(s);
      if (const net::PacketPool* pool = net::PacketPool::find(ev)) {
        r.metrics.peak_pool_packets += pool->peak_outstanding();
        L.pool_allocs += pool->total_allocated();
      }
      r.metrics.scheduler_switches += ev.scheduler_switches();
      L.shard_events[static_cast<std::size_t>(s)] +=
          static_cast<double>(ev.events_processed());
    }
    r.metrics.scheduler = to_string(ctx.events().scheduler_kind());
    L.events += r.metrics.events_processed;
    L.pool_peak_pkts += r.metrics.peak_pool_packets;
    L.scheduler_switches += r.metrics.scheduler_switches;
    results.push_back(std::move(r));
  }

  print_results(scn.name(), results);
  t0 = Clock::now();
  runner::write_json_file("scenario_" + scn.name(),
                          runner::json_from_results(results));
  L.report_s += since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: layer_probe [--scale=X] [--shard-threads=N] "
                 "[--trace=csv|off] [--trace-dir=D] "
                 "--layers=OUT.json <spec.toml>...\n");
    return 1;
  }
  Layers layers;
  try {
    for (const std::string& path : opts.specs) probe_spec(path, opts, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (!trace::write_text_file(opts.layers_path,
                              layers.to_json().dump() + "\n")) {
    std::fprintf(stderr, "layer_probe: cannot write %s\n",
                 opts.layers_path.c_str());
    return 1;
  }
  return 0;
}
