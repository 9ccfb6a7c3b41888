#!/usr/bin/env python3
"""Benchmark of `mpsim run`: host cost end to end, per-layer counts and time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from the root of a source tree. The first call builds the simulator,
the `mpsim` CLI and perfbench/probe.cpp from source into .bench_build/
(twice: optimised, and with -pg for the profile).

Every grid point of a workload runs as its own `mpsim run` process under a
memory and time cap. With --trace 0 the grid is run again and again for
--seconds and the end-to-end metrics are medians over those passes; the
set-up time is the median of several `mpsim validate` calls. With --trace 1
the grid runs once through `mpsim run`, then through a -pg build of it for
each module's share of self time, then through the layer probe until
--seconds have passed; the probe's stdout, report and trace files must
equal mpsim's.

Each completed run's stdout must equal the reference in
perfbench/reference/, recorded when the benchmark was written;
--record-reference records it again. The last stdout line is one JSON
object; tables go to stderr. perfbench/README.md describes the workloads
and the metrics.
"""
import argparse
import fcntl
import filecmp
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
VARIANTS = 4        # --seed picks one of this many input variants
MEM_CAP_MB = 1024   # address-space cap of every simulator process
RUN_CAP_S = 60.0    # wall-clock cap of every simulator process
SETUP_SHARE = 0.15  # share of an end-to-end run spent on `mpsim validate`
MIN_SETUPS = 7      # fewest `mpsim validate` calls in an end-to-end run
PKT_BITS = 1500 * 8  # net::kDataPacketBytes, as stats::pkts_to_mbps uses
MODULES = ("core", "net", "tcp", "cc", "mptcp", "fault", "trace")


@dataclass(frozen=True)
class Workload:
    spec: str                      # under perfbench/specs/
    scale: float                   # mpsim --scale
    shard_threads: int = 1         # mpsim --shard-threads
    trace: str = "off"             # mpsim --trace
    only: dict = field(default_factory=dict)  # sweep axis -> kept values
    env: dict = field(default_factory=dict)   # MPSIM_* settings


WORKLOADS = {
    "fattree_k8": Workload("fig13_fattree.toml", scale=0.05),
    # The shards run inline, in turn on one thread: with a thread per shard
    # on a 4-vCPU host, one preempted vCPU stalls every window barrier, and
    # a pass took from 2 s to 17 s. The traced pass times the threads too.
    "fattree_k16_sharded": Workload("fig13_fattree_k16.toml", scale=0.025,
                                    shard_threads=4,
                                    only={"topology.k": [16]},
                                    env={"MPSIM_SHARD_EXEC": "inline"}),
    "lb_churn_trace": Workload("server_lb_churn.toml", scale=10,
                               trace="csv"),
    "torus_rate_cc": Workload("fig8_rate_matrix.toml", scale=1.0),
}


class BenchError(Exception):
    """The benchmark itself cannot run (build failure, bad spec)."""


# --- inputs -------------------------------------------------------------

def parse_seconds(text):
    m = re.fullmatch(r"([0-9.eE+-]+)\s*(ns|us|ms|s|min)", text.strip())
    if not m:
        raise BenchError(f"cannot read duration {text!r}")
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0}
    return float(m.group(1)) * unit[m.group(2)]


def toml_value(v):
    return json.dumps(v) if isinstance(v, str) else repr(v)


@dataclass
class Point:
    pid: str          # stable id: sweep values and seed
    text: str         # a spec whose grid is this one point
    measure_s: float  # scaled measurement window, for goodput -> packets


def grid_points(wl, variant):
    """One spec per grid point of `wl` for input variant `variant`.

    The variant shifts the spec's [run] seeds (default [1]) by
    variant * len(seeds) and its [traffic] tm_seed, if any, by `variant`.
    Each point keeps its sweep axes (one value each), so the run name
    `mpsim` prints is the grid's own.
    """
    base = (HERE / "specs" / wl.spec).read_text()
    doc = tomllib.loads(base)
    axes = []
    for section, keys in doc.get("sweep", {}).items():
        for key, values in keys.items():
            name = f"{section}.{key}"
            values = values if isinstance(values, list) else [values]
            axes.append((name, wl.only.get(name, values)))
    seeds = doc["run"].get("seeds", [1])
    seeds = [s + variant * len(seeds) for s in seeds]
    tm_seed = doc.get("traffic", {}).get("tm_seed")
    measure_s = parse_seconds(doc["run"]["measure"]) * wl.scale

    combos = [[]]
    for name, values in axes:
        combos = [c + [(name, v)] for c in combos for v in values]
    points = []
    for combo in combos:
        for seed in seeds:
            repl = {f"sweep.{n}": f"[{toml_value(v)}]" for n, v in combo}
            repl["run.seeds"] = f"[{seed}]"
            if tm_seed is not None:
                repl["traffic.tm_seed"] = str(tm_seed + variant)
            pid = ",".join(f"{n}={v}" for n, v in combo) + f"/s{seed}"
            points.append(Point(pid, substitute(base, repl), measure_s))
    return points


def substitute(text, repl):
    """Replace `section.key = ...` lines; add keys the section lacks."""
    out, section, done = [], None, set()

    def close_section():
        for k, v in repl.items():
            sec, key = k.split(".", 1)
            if sec == section and k not in done:
                out.append(f"{key} = {v}")
                done.add(k)

    for line in text.splitlines():
        head = re.match(r"\s*\[([A-Za-z0-9_]+)\]\s*$", line)
        if head:
            close_section()
            section = head.group(1)
            out.append(line)
            continue
        kv = re.match(r"\s*([A-Za-z0-9_.]+)\s*=", line)
        k = f"{section}.{kv.group(1)}" if kv else None
        if k in repl:
            out.append(f"{kv.group(1)} = {repl[k]}")
            done.add(k)
        else:
            out.append(line)
    close_section()
    missing = set(repl) - done
    if missing:
        raise BenchError(f"spec lacks sections for {sorted(missing)}")
    return "\n".join(out) + "\n"


# --- build --------------------------------------------------------------

def build():
    """Configure and build both trees; a no-op once they are current."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(os.cpu_count() or 1)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for tree, flags in (("release", []),
                            ("gprof", ["-DPERFBENCH_GPROF=ON"])):
            d = BUILD / tree
            steps = [["cmake", "--build", str(d), "-j", jobs]]
            if not (d / "CMakeCache.txt").exists():
                steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(d),
                                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                                 *gen, *flags])
            for cmd in steps:
                with open(log, "a") as f:
                    rc = subprocess.call(cmd, stdout=f,
                                         stderr=subprocess.STDOUT)
                if rc != 0:
                    shutil.rmtree(d, ignore_errors=True)
                    tail = log.read_text()[-3000:]
                    raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")


def binary(tree, name):
    return BUILD / tree / name


# --- capped processes ---------------------------------------------------

@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self):
        return self.rc == 0 and not self.timed_out


def run_capped(argv, cwd, extra_env=None):
    """Run one simulator process under the memory and time caps."""
    cap = MEM_CAP_MB << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {k: v for k, v in os.environ.items() if not k.startswith("MPSIM_")}
    env.update(extra_env or {})
    out_path, err_path = cwd / "proc.stdout", cwd / "proc.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=out,
                             stderr=err, stdin=subprocess.DEVNULL, env=env,
                             preexec_fn=limit)
        lock, state = threading.Lock(), {"exited": False, "killed": False}

        def kill():
            with lock:  # an exited child stays unreaped until `exited`
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(p.pid, signal.SIGKILL)

        timer = threading.Timer(RUN_CAP_S, kill)
        timer.start()
        os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0,
                state["killed"], out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))


# --- grid runs ----------------------------------------------------------

def delivered_pkts(stdout, measure_s):
    """Packets delivered in the measurement window, from mpsim's goodput."""
    vals = dict(re.findall(r"^  ([A-Za-z0-9_.]+) = (\S+)$", stdout, re.M))
    if "total_mbps" in vals:
        mbps = float(vals["total_mbps"])
    else:
        mbps = sum(float(v) for k, v in vals.items()
                   if k.startswith("mbps_"))
    return round(mbps * 1e6 * measure_s / PKT_BITS)


def sim_lines(stdout):
    """Stdout without the scheduler line, whose switch count is per shard."""
    return [ln for ln in stdout.splitlines()
            if not ln.startswith("  # scheduler = ")]


@dataclass
class PointRun:
    point: Point
    proc: Proc
    cwd: Path
    report: list = None      # BENCH_scenario_*.json, when the run completed
    matches: bool = True     # completed with the reference stdout, if any

    @property
    def ok(self):
        return self.proc.ok and self.report is not None

    @property
    def events(self):
        return sum(int(r["metrics"]["events_processed"]) for r in self.report)

    @property
    def delivered(self):
        return delivered_pkts(self.proc.stdout, self.point.measure_s)

    def layers(self):
        return json.loads((self.cwd / "layers.json").read_text())


class Grid:
    """One workload's grid for one input variant, one spec file a point."""

    def __init__(self, name, wl, variant):
        self.name, self.wl = name, wl
        self.points = grid_points(wl, variant)
        self.dir = BUILD / "work" / name / f"v{variant}"
        self.reference = load_reference(name, variant)
        (self.dir / "specs").mkdir(parents=True, exist_ok=True)
        self.specs = []
        for i, pt in enumerate(self.points):
            path = self.dir / "specs" / f"point{i}.toml"
            path.write_text(pt.text)
            self.specs.append(path)

    def run(self, i, program, tag, shard_threads=None, extra_env=None):
        """Run point `i`. With the workload's own shard count, a point that
        has a reference must complete and print exactly that stdout."""
        cwd = self.dir / f"{tag}{i}"
        shutil.rmtree(cwd, ignore_errors=True)
        (cwd / "trace").mkdir(parents=True)
        shards = shard_threads or self.wl.shard_threads
        argv = [*program, f"--scale={self.wl.scale}",
                f"--shard-threads={shards}", f"--trace={self.wl.trace}",
                "--trace-dir=trace", self.specs[i]]
        env = {**self.wl.env, **(extra_env or {})}
        result = PointRun(self.points[i], run_capped(argv, cwd, env), cwd)
        reports = list(cwd.glob("BENCH_scenario_*.json"))
        if result.proc.ok and len(reports) == 1:
            result.report = json.loads(reports[0].read_text())
        ref = self.reference.get(result.point.pid)
        if shard_threads is None and ref is not None:
            result.matches = result.ok and ref == result.proc.stdout
        return result

    def mpsim(self, i, tag="mpsim", tree="release", **kw):
        return self.run(i, [binary(tree, "mpsim"), "run", "--threads=1"],
                        tag, **kw)

    def probe(self, i, tag="probe", **kw):
        return self.run(i, [binary("release", "layer_probe"),
                            "--layers=layers.json"], tag, **kw)

    def validate(self):
        cwd = self.dir / "validate"
        cwd.mkdir(exist_ok=True)
        p = run_capped([binary("release", "mpsim"), "validate",
                        f"--scale={self.wl.scale}", *self.specs], cwd,
                       self.wl.env)
        if not p.ok:
            raise BenchError(f"mpsim validate failed:\n{p.stderr[-2000:]}")
        return p.wall_s


class Tally:
    """Grid runs attempted and failed, and whether every output was right.

    A grid run (one point of the grid) fails if any of its processes
    fails, hits a cap, or prints something it should not."""

    def __init__(self, grid):
        self.attempted, self.bad, self.correct = len(grid.points), set(), True

    @property
    def failed(self):
        return len(self.bad)

    def add(self, run, right=True):
        """Count `run`; `right` is any extra check of its output."""
        right = right and run.matches
        if not (run.ok and right):
            self.bad.add(run.point.pid)
        self.correct &= right
        return run


# --- reference ----------------------------------------------------------

def reference_path(name):
    return HERE / "reference" / f"{name}.json"


def load_reference(name, variant):
    path = reference_path(name)
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get(f"v{variant}", {})


def record_reference():
    build()
    for name, wl in WORKLOADS.items():
        ref = {}
        for v in range(VARIANTS):
            grid = Grid(name, wl, v)
            grid.reference = {}
            runs = [grid.mpsim(i) for i in range(len(grid.points))]
            ref[f"v{v}"] = {r.point.pid: r.proc.stdout for r in runs if r.ok}
            for r in runs:
                if not r.ok:
                    print(f"{name} v{v} {r.point.pid}: no reference "
                          f"(rc={r.proc.rc}, {r.proc.wall_s:.1f}s, "
                          f"{r.proc.rss_mb:.0f} MB)", file=sys.stderr)
        reference_path(name).parent.mkdir(exist_ok=True)
        reference_path(name).write_text(json.dumps(ref, indent=1) + "\n")
        print(f"recorded {reference_path(name)}", file=sys.stderr)


# --- end to end (--trace 0) ---------------------------------------------

median = statistics.median


def end_to_end(grid, seconds):
    start = time.perf_counter()
    # Set-up: `mpsim validate` parses and dry-builds every grid point. Its
    # calls are spread over the whole run, between grid runs, so that the
    # host's speed drifting during a run moves set-up and grid alike.
    setup = []

    def set_up():
        while not setup or sum(setup) < SETUP_SHARE * (time.perf_counter() -
                                                        start):
            setup.append(grid.validate())

    # The grid, again and again. A grid run that fails is counted once and
    # not repeated: it would only spend the time of the passes on its cap.
    n, tally, passes = len(grid.points), Tally(grid), 0
    runs = [[] for _ in range(n)]
    while passes == 0 or time.perf_counter() < start + seconds:
        for i in range(n):
            set_up()
            if passes == 0 or runs[i][0].ok:
                runs[i].append(tally.add(grid.mpsim(i)))
        passes += 1
    while len(setup) < MIN_SETUPS:
        setup.append(grid.validate())
    # Timings come from completed runs only.
    done = [oks for oks in ([r for r in rs if r.ok] for rs in runs) if oks]
    if not done:
        raise BenchError("no grid run completed")
    for rs in done:  # every pass prints the same bytes
        tally.correct &= len({r.proc.stdout for r in rs}) == 1

    # Medians per grid run over the passes.
    wall = sum(median(r.proc.wall_s for r in rs) for rs in done)
    delivered = sum(rs[0].delivered for rs in done)
    events = sum(rs[0].events for rs in done)
    rss = max(median(r.proc.rss_mb for r in rs) for rs in done)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (median(setup), "s"),
        "delivered_pkts_per_s": (delivered / wall, "1/s"),
        "events_per_delivered_pkt": (events / max(delivered, 1),
                                     "events/pkt"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"[{grid.name}] {n} grid runs, {passes} passes, "
          f"{tally.failed}/{tally.attempted} failed; set-up over "
          f"{len(setup)} validates", file=sys.stderr)
    for rs in runs:
        walls = [r.proc.wall_s for r in rs]
        state = "ok  " if all(r.ok and r.matches for r in rs) else "FAIL"
        print(f"  {state} {rs[0].point.pid}  rc={rs[0].proc.rc} "
              f"wall_s median={median(walls):.3f} "
              f"[{min(walls):.3f}, {max(walls):.3f}] x{len(rs)} "
              f"rss={rs[0].proc.rss_mb:.0f}MB"
              f"{'' if rs[0].matches else '  (reference not met)'}",
              file=sys.stderr)
    return metrics, tally


# --- per layer (--trace 1) ----------------------------------------------

def strip_wall(report):
    """A BENCH_scenario report without its wall-clock fields."""
    out = json.loads(json.dumps(report))
    for r in out:
        r["metrics"].pop("wall_seconds", None)
        r["metrics"].pop("events_per_sec", None)
    return out


def same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, _, _ = filecmp.cmpfiles(a, b, names, shallow=False)
    return len(match) == len(names)


def same_run(probe, engine):
    """The probe ran exactly what `mpsim run` ran: same stdout, report and
    trace bytes, and the same event count."""
    return (probe.ok and probe.proc.stdout == engine.proc.stdout
            and strip_wall(probe.report) == strip_wall(engine.report)
            and same_files(probe.cwd / "trace", engine.cwd / "trace")
            and probe.layers()["core_events"] == engine.events)


def symbol_modules():
    """Demangled symbol -> src/<module>s, from the -pg build's objects."""
    objs = BUILD / "gprof" / "src" / "CMakeFiles" / "mpsim.dir"
    owners = {}
    for obj in objs.rglob("*.o"):
        module = obj.relative_to(objs).parts[0]
        text = subprocess.run(["nm", "-C", "--defined-only", str(obj)],
                              capture_output=True, text=True).stdout
        for line in text.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "TtWw":
                owners.setdefault(parts[2], set()).add(module)
    return owners


def module_of(symbol, owners):
    """The src/ module a profiled function belongs to: the one object file
    that defines it, else its mpsim:: namespace, else "other"."""
    mods = owners.get(symbol, set())
    if len(mods) == 1:
        return next(iter(mods))
    m = re.match(r"mpsim::(\w+)::", symbol)
    if m and (ROOT / "src" / m.group(1)).is_dir():
        return m.group(1)
    return "core" if symbol.startswith("mpsim::") else "other"


def self_time_shares(gmon_files):
    """Each module's share (%) of the self time in the gprof samples."""
    if not gmon_files:
        return {}, 0.0
    flat = subprocess.run(["gprof", "-b", "-p", str(binary("gprof", "mpsim")),
                           *map(str, gmon_files)], capture_output=True,
                          text=True, check=True).stdout
    owners = symbol_modules()
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                     r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
    self_s = {}
    for line in flat.splitlines():
        m = row.match(line)
        if m:
            mod = module_of(m.group(2).strip(), owners)
            self_s[mod] = self_s.get(mod, 0.0) + float(m.group(1))
    total = sum(self_s.values()) or 1.0
    return {k: 100.0 * v / total for k, v in self_s.items()}, total


def run_s(layers):
    return layers["core_warmup_run_s"] + layers["core_measure_run_s"]


def per_layer(grid, seconds):
    start = time.perf_counter()
    n, tally = len(grid.points), Tally(grid)
    engine = [tally.add(grid.mpsim(i)) for i in range(n)]
    live = [i for i in range(n) if engine[i].ok]
    if not live:
        raise BenchError("no grid run completed")

    # Self time: -pg `mpsim run`s of every completed point, at one shard
    # (gprof samples one thread), for a quarter of the run.
    gmon = grid.dir / "gmon"
    shutil.rmtree(gmon, ignore_errors=True)
    gmon.mkdir(parents=True)
    t_gprof, profiled = time.perf_counter() + seconds / 4, False
    while not profiled or time.perf_counter() < t_gprof:
        for i in live:
            r = grid.mpsim(i, "gprof", tree="gprof", shard_threads=1,
                           extra_env={"GMON_OUT_PREFIX": str(gmon / "gmon")})
            tally.add(r, sim_lines(r.proc.stdout) ==
                      sim_lines(engine[i].proc.stdout))
        profiled = True
    shares, profiled_s = self_time_shares(sorted(gmon.glob("gmon.*")))

    # The sharded workload also runs the probe at one shard and with a
    # thread per shard: shard.speedup is the ratio of their run times.
    one_shard = {i: [] for i in live}
    threaded = {i: [] for i in live}
    if grid.wl.shard_threads > 1:
        for _ in range(2):
            for i in live:
                for tag, kw, out in (
                        ("probe1_", {"shard_threads": 1}, one_shard),
                        ("probeT", {"extra_env": {"MPSIM_SHARD_EXEC":
                                                  "threads"}}, threaded)):
                    r = grid.probe(i, tag, **kw)
                    tally.add(r, sim_lines(r.proc.stdout) ==
                              sim_lines(engine[i].proc.stdout))
                    if r.ok:
                        out[i].append(run_s(r.layers()))

    samples = {i: [] for i in live}  # per point, one layers dict a pass
    passes = 0
    while passes == 0 or time.perf_counter() < start + seconds:
        for i in live:
            r = grid.probe(i)
            if tally.add(r, same_run(r, engine[i])).ok:
                samples[i].append(r.layers())
        passes += 1
    live = [i for i in live if samples[i]]
    if not live:
        raise BenchError("no grid run completed under the probe")
    for i in live:  # counts repeat exactly from pass to pass
        first = {k: v for k, v in samples[i][0].items() if not k.endswith("_s")}
        for s in samples[i][1:]:
            tally.correct &= all(s[k] == v for k, v in first.items())

    def cnt(key):
        return sum(samples[i][0][key] for i in live)

    def med(key):
        return sum(median(s[key] for s in samples[i]) for i in live)

    core_run_s = sum(median(run_s(s) for s in samples[i]) for i in live)
    delivered, hops, events = (cnt("mptcp_delivered_pkts"), cnt("net_hops"),
                               cnt("core_events"))
    tally.correct &= all(abs(samples[i][0]["mptcp_delivered_pkts"] -
                             engine[i].delivered) <= 1 for i in live)

    per_run = []
    for i in live:
        lay = samples[i][0]
        shard_events = lay["shard_events"]
        imbalance = max(shard_events) / statistics.mean(shard_events)
        speedup = (median(one_shard[i]) / median(threaded[i])
                   if one_shard[i] and threaded[i] else 1.0)
        per_run.append((grid.points[i].pid, lay, imbalance, speedup))
    shards = samples[live[0]][0]["shard_count"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "scenario.load_s": (med("scenario_load_s"), "s"),
        "scenario.validate_s": (med("scenario_validate_s"), "s"),
        "scenario.runs": (cnt("scenario_runs"), "count"),
        "topo.build_s": (med("topo_build_s"), "s"),
        "topo.queues": (cnt("topo_queues"), "count"),
        "traffic.build_s": (med("traffic_build_s"), "s"),
        "traffic.connections": (cnt("traffic_connections"), "count"),
        "core.run_s": (core_run_s, "s"),
        "core.events": (events, "count"),
        "core.events_per_s": (ratio(events, core_run_s), "1/s"),
        "core.events_per_sim_s": (ratio(events, cnt("core_sim_s")), "1/s"),
        "core.pending_at_warmup": (cnt("core_pending_at_warmup"), "count"),
        "core.scheduler_switches": (cnt("core_scheduler_switches"), "count"),
        "net.hops": (hops, "count"),
        "net.drops": (cnt("net_drops"), "count"),
        "net.drop_ratio": (ratio(cnt("net_drops"), hops), "ratio"),
        "net.hops_per_delivered_pkt": (ratio(hops, delivered), "hops/pkt"),
        "net.pool_allocs": (cnt("net_pool_allocs"), "count"),
        "net.pool_allocs_per_delivered_pkt": (
            ratio(cnt("net_pool_allocs"), delivered), "allocs/pkt"),
        "net.pool_peak_pkts": (cnt("net_pool_peak_pkts"), "count"),
        "tcp.pkts_sent": (cnt("tcp_pkts_sent"), "count"),
        "tcp.retransmits": (cnt("tcp_retransmits"), "count"),
        "tcp.retx_ratio": (ratio(cnt("tcp_retransmits"),
                                 cnt("tcp_pkts_sent")), "ratio"),
        "tcp.timeouts": (cnt("tcp_timeouts"), "count"),
        "tcp.loss_events": (cnt("tcp_loss_events"), "count"),
        "mptcp.delivered_pkts": (delivered, "count"),
        "mptcp.rcv_duplicates": (cnt("mptcp_rcv_duplicates"), "count"),
        "mptcp.dup_ratio": (ratio(cnt("mptcp_rcv_duplicates"),
                                  cnt("mptcp_rcv_packets")), "ratio"),
        "mptcp.acks_sent": (cnt("mptcp_acks_sent"), "count"),
        "mptcp.reinjected": (cnt("mptcp_reinjected"), "count"),
        "mptcp.hol_reinjections": (cnt("mptcp_hol_reinjections"), "count"),
        "fault.events_applied": (cnt("fault_events_applied"), "count"),
        "trace.records": (cnt("trace_records"), "count"),
        "trace.overwritten": (cnt("trace_overwritten"), "count"),
        "trace.loss_ratio": (ratio(cnt("trace_overwritten"),
                                   cnt("trace_records")), "ratio"),
        "trace.flush_s": (med("trace_flush_s"), "s"),
        "shard.count": (shards, "count"),
        "shard.lookahead_us": (samples[live[0]][0]["shard_lookahead_us"],
                               "us"),
        "shard.speedup": (median(s for *_, s in per_run), "x"),
        "shard.events_imbalance": (max(b for *_, b, _ in per_run), "ratio"),
        "runner.report_s": (med("runner_report_s"), "s"),
    }
    for mod in MODULES:
        metrics[f"{mod}.self_pct"] = (shares.get(mod, 0.0), "%")

    print(f"[{grid.name}] per-layer table: {len(live)} of {n} grid runs "
          f"completed, {passes} probe passes each; self time from "
          f"{profiled_s:.2f}s of -pg samples", file=sys.stderr)
    for k, (v, unit) in metrics.items():
        print(f"  {k:<36} {v:>16.6g} {unit}", file=sys.stderr)
    other = {k: round(v, 2) for k, v in shares.items() if k not in MODULES}
    print(f"  self_pct of the other modules: {other}", file=sys.stderr)
    print("  per grid run: trace.records trace.overwritten trace.loss_ratio "
          "shard.events_imbalance shard.speedup", file=sys.stderr)
    for pid, lay, imbalance, speedup in per_run:
        rec, lost = lay["trace_records"], lay["trace_overwritten"]
        print(f"  {pid:<56} {rec:>9.0f} {lost:>9.0f} "
              f"{ratio(lost, rec):>7.4f} {imbalance:>7.4f} {speedup:>7.4f}",
              file=sys.stderr)
    for i in range(n):
        if not engine[i].ok:
            print(f"  {grid.points[i].pid:<56} FAILED under mpsim "
                  f"(rc={engine[i].proc.rc}, "
                  f"rss={engine[i].proc.rss_mb:.0f}MB)", file=sys.stderr)
    return metrics, tally


# --- main ---------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        build()
        grid = Grid(args.workload, WORKLOADS[args.workload],
                    args.seed % VARIANTS)
        run = per_layer if args.trace else end_to_end
        metrics, tally = run(grid, args.seconds)
        shutil.rmtree(grid.dir, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
