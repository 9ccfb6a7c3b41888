#!/usr/bin/env python3
"""Fixture suite for tools/mpsim_analyze.

Runs the analyzer over tests/analyze_fixtures/src — a tree seeded with
deliberate violations and negative controls — and asserts that:

  * every seeded violation fires, in the right file, under the right rule,
    and every rule the analyzer knows has at least one seeded violation;
  * nothing else fires: each path exemption's negative control and the
    clean cold-code control stay silent;
  * union-scope rules still fire in a hot function under an exempt path;
  * the cross-TU escape (clean handler calling an allocating helper in
    another file) is caught;
  * --check-stale-allows flags the allow comment that suppresses nothing,
    and only that one.

Stdlib only; invoked by ctest as `python3 tests/test_analyze_fixtures.py
--root <repo root>`.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

# (file, rule) findings the fixture tree must produce, one entry per
# finding — and the only ones.
EXPECTED = [
    ("hot_alloc.cpp", "hot-alloc"),
    ("escape_helper.cpp", "hot-alloc"),  # hot only via the cross-TU call
    ("escape_helper.cpp", "pool-discipline"),  # its delete[]
    ("hot_io.cpp", "hot-io"),
    ("hot_static.cpp", "hot-static"),
    ("packet_ownership.cpp", "packet-ownership"),
    ("clock_hot.cpp", "determinism-clock"),
    ("clock_cold.cpp", "determinism-clock"),
    ("runner/progress_probe.cpp", "determinism-clock"),  # hot, exempt path
    ("rand_hot.cpp", "determinism-rand"),
    ("rand_cold.cpp", "determinism-rand"),
    ("core/rng_jitter.cpp", "determinism-rand"),  # hot, exempt path
    ("simtime_hot.cpp", "simtime-discipline"),
    ("simtime_cold.cpp", "simtime-discipline"),  # cast wrapped over 2 lines
    ("pool_discipline.cpp", "pool-discipline"),
    ("mutable_global.cpp", "mutable-global"),
    ("no_bare_assert.cpp", "no-bare-assert"),
    ("trace_discipline.cpp", "trace-discipline"),
    ("registry_call.cpp", "registry-discipline"),
    ("scenario/builders.cpp", "registry-discipline"),  # uppercase key
    ("scenario/builders.cpp", "registry-discipline"),  # duplicate key
]

# Negative controls: files that must exist and never appear in a finding.
NEVER_FLAGGED = [
    "clean_cold.cpp",          # hot rules stay out of cold code
    "escape.cpp",              # the clean half of the cross-TU escape
    "runner/wall_timer.cpp",   # runner/ clock reads in cold code
    "core/rng.cpp",            # core/rng <random> engine in cold code
    "core/time.hpp",           # owns the SimTime unit factors
    "net/packet.cpp",          # owns packet allocation
    "trace/ring.cpp",          # owns append_unchecked()
    "scenario/registry.hpp",   # registry declarations and forwarders
]

FINDING_RE = re.compile(r"^(\S+?):(\d+): \[([\w-]+)\]")


def run_analyzer(root: Path, *extra: str) -> tuple[int, str]:
    cmd = [sys.executable, str(root / "tools" / "mpsim_analyze"),
           "--src-root", str(root / "tests" / "analyze_fixtures" / "src"),
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=None)
    args = ap.parse_args()
    root = (Path(args.root) if args.root
            else Path(__file__).resolve().parent.parent)
    fixtures = root / "tests" / "analyze_fixtures" / "src"

    failures: list[str] = []

    # --- every rule has a seeded violation ------------------------------
    sys.path.insert(0, str(root / "tools" / "mpsim_analyze"))
    import rules  # noqa: E402
    unseeded = set(rules.RULE_NAMES) - {rule for _, rule in EXPECTED}
    if unseeded:
        failures.append(f"rules with no seeded violation: {sorted(unseeded)}")

    # --- seeded violations fire, nothing else does ----------------------
    code, out = run_analyzer(root)
    if code != 1:
        failures.append(f"fixture run: expected exit 1, got {code}\n{out}")
    reported = Counter((m.group(1), m.group(3)) for m in
                       map(FINDING_RE.match, out.splitlines()) if m)
    expected = Counter(EXPECTED)
    for fname, rule in sorted((expected - reported).elements()):
        failures.append(f"seeded violation not reported: {fname} [{rule}]")
    for fname, rule in sorted((reported - expected).elements()):
        failures.append(f"unexpected finding: {fname} [{rule}]")
    for fname in NEVER_FLAGGED:
        if not (fixtures / fname).is_file():
            failures.append(f"negative control missing: {fname}")
        if any(f == fname for f, _ in reported):
            failures.append(f"false positive on {fname}")
    # The plain run must NOT flag the stale allow (that is opt-in).
    if "stale-allow" in out:
        failures.append("plain run reported stale-allow without the flag")

    # --- stale-allow detection ------------------------------------------
    code, out = run_analyzer(root, "--check-stale-allows")
    if code != 1:
        failures.append(f"stale run: expected exit 1, got {code}")
    stale = [ln for ln in out.splitlines() if "[stale-allow]" in ln]
    if [ln.split(":")[0] for ln in stale] != ["stale_allow.cpp"]:
        failures.append(f"expected one stale allow, in stale_allow.cpp; "
                        f"got {stale}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"test_analyze_fixtures: OK ({len(EXPECTED)} seeded violations "
          f"across {len(rules.RULE_NAMES)} rules caught, "
          f"{len(NEVER_FLAGGED)} controls clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
