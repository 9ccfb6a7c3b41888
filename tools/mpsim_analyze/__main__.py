#!/usr/bin/env python3
"""mpsim_analyze: the simulator's static-analysis tool.

Lexes every C++ file under src/, parses the translation units named by
compile_commands.json (plus all headers) into a project call graph,
computes the **hot set** — everything reachable from the event-dispatch
roots — and runs the rule passes (rules.py): file-wide rules over every
file, hot rules over the hot function bodies, and union rules over both.
A helper called from Subflow::receive cannot escape the hot rules by
living in an unlisted file.

Usage:
  tools/mpsim_analyze --compile-commands build/compile_commands.json
  tools/mpsim_analyze --src-root src        (no build tree needed)
Options:
  --dump-hotset          print the hot functions and exit
  --dump-callgraph       print every function and its resolved callees
  --dump-hot-files FILE  write the hot file list ('-' = stdout)
  --check-stale-allows   also fail on allow comments that no longer
                         suppress anything

Exit status: 0 clean, 1 findings/stale allows, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rules                               # noqa: E402
from callgraph import CallGraph            # noqa: E402
from cpp_parser import parse_file          # noqa: E402
from lexer import lex                      # noqa: E402

SOURCE_GLOBS = ("*.cpp", "*.hpp", "*.h")


def _sources(base: Path, rel_to: Path, globs=SOURCE_GLOBS) -> set:
    return {p.relative_to(rel_to).as_posix()
            for g in globs for p in base.rglob(g)}


def discover_files(args, root: Path):
    """(root, files to check, files whose definitions form the call graph),
    paths relative to root."""
    if args.src_root:
        root = Path(args.src_root)
        if not root.is_dir():
            sys.exit(f"mpsim_analyze: no such directory: {root}")
        files = sorted(_sources(root, root))
        return root, files, files
    cc = Path(args.compile_commands)
    if not cc.is_file():
        sys.exit(f"mpsim_analyze: no such file: {cc} "
                 "(configure cmake with CMAKE_EXPORT_COMPILE_COMMANDS)")
    src = (root / "src").resolve()
    graph: set = set()
    for entry in json.loads(cc.read_text()):
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry["directory"]) / f
        try:
            graph.add((Path("src") / f.resolve().relative_to(src)).as_posix())
        except ValueError:
            continue  # tests/bench/examples TU — out of scope
    # Headers never appear as TUs; inline hot-path code lives there.
    graph |= _sources(root / "src", root, ("*.hpp", "*.h"))
    return root, sorted(_sources(root / "src", root) | graph), sorted(graph)


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="mpsim_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--compile-commands", metavar="JSON",
                     help="compile_commands.json naming the TUs")
    src.add_argument("--src-root", metavar="DIR",
                     help="analyze every C++ file under DIR instead "
                          "(fixture trees, no build needed)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--dump-hotset", action="store_true")
    ap.add_argument("--dump-callgraph", action="store_true")
    ap.add_argument("--dump-hot-files", metavar="FILE")
    ap.add_argument("--check-stale-allows", action="store_true")
    args = ap.parse_args()

    root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent.parent
    root, files, graph_files = discover_files(args, root)
    if not files:
        sys.exit("mpsim_analyze: nothing to analyze")

    lexed_files = {rel: lex(rel, (root / rel).read_text()) for rel in files}
    defs = [d for rel in graph_files for d in parse_file(lexed_files[rel])]
    graph = CallGraph(defs)
    hot = graph.hot_set()

    if args.dump_callgraph:
        graph.dump(sys.stdout)
        return 0
    if args.dump_hotset:
        for d in hot:
            print(f"{d.path}:{d.start_line}-{d.end_line} {d.qualname}")
        print(f"# {len(hot)} hot functions of {len(defs)} total, "
              f"{len(graph.hot_files(hot))} files", file=sys.stderr)
        return 0
    if args.dump_hot_files:
        out = "\n".join(graph.hot_files(hot)) + "\n"
        if args.dump_hot_files == "-":
            sys.stdout.write(out)
        else:
            Path(args.dump_hot_files).write_text(out)
        return 0

    findings, used_allows = rules.run_rules(lexed_files, hot)
    for f in findings:
        print(f)
    failures = len(findings)

    if args.check_stale_allows:
        for path, line in rules.stale_allows(lexed_files, used_allows):
            print(f"{path}:{line}: [stale-allow] allow comment suppresses "
                  "nothing — delete it")
            failures += 1

    if failures:
        print(f"\nmpsim_analyze: {failures} finding(s); hot set "
              f"{len(hot)}/{len(defs)} functions across "
              f"{len(graph.hot_files(hot))} files", file=sys.stderr)
        return 1
    print(f"mpsim_analyze: OK ({len(files)} files, {len(defs)} functions, "
          f"{len(hot)} hot)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
