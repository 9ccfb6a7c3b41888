"""Rule passes: file-wide rules over every file, hot rules over the hot set.

Every rule matches the lexer's code view (comments and literal bodies
blanked) and reports `path:line: [rule] message`, prefixed with the
enclosing hot function's name when the line lies in a hot body.
Suppression: `// mpsim-analyze: allow(<rule>)` on the offending line or the
line directly above it (clang-format keeps many offenders at the column
limit).

Each rule has a scope: `file` checks every line of every file outside the
rule's exempt paths; `hot` checks only hot function bodies; `union` checks
both, so an exempt path's hot functions are still checked.

Rules
-----
hot-alloc           (hot) No heap allocation on event-dispatch-reachable
                    paths: `new`, make_unique/make_shared, malloc/calloc/
                    realloc, and growing STL container calls (push_back,
                    emplace*, resize, insert, append, to_string, reserve).
                    Hot state lives in the SimArena SoA columns, packets in
                    the pool, pending events in reserved scheduler storage.
hot-io              (hot) No blocking I/O (stdio, iostreams on std::cout/
                    cerr, file streams, system()): dispatch must never stall
                    on the host OS, and output ordering would leak thread
                    interleaving into results.
hot-static          (hot) No function-local `static` mutable state:
                    concurrent simulations on worker threads would race on
                    it (and C++ magic-statics serialize on first use).
packet-ownership    (hot) A function that takes packets from the pool
                    (Packet::alloc / PacketPool::alloc) must also hand each
                    one on (send_on/advance/push_back/receive_shipped) or
                    return it (release); an alloc with no downstream
                    transfer leaks the packet out of the conservation
                    ledger.
determinism-clock   (union) No wall-clock reads (std::chrono clocks,
                    time(), clock(), gettimeofday): results must be a pure
                    function of (spec, seed). The file-wide half exempts
                    src/runner/, which measures host wall time for
                    RunMetrics and never feeds it back into simulations.
determinism-rand    (union) All randomness flows through the seeded
                    mpsim::Rng: no rand()/srand(), std::random_device, or
                    <random> engines. The file-wide half exempts
                    src/core/rng.*.
simtime-discipline  (union) SimTime values are built with
                    from_ns/us/ms/sec(), not hand-scaled unit factors
                    (`static_cast<SimTime>(x * 1e9)`): hand-scaling is where
                    ns/us confusions breed. core/time.hpp owns the only
                    factors and is exempt from both halves, so the union
                    is file-wide outside it.
pool-discipline     (file) Packets are pool-allocated: no `new Packet` /
                    `delete` or malloc/free outside src/net/packet.cpp.
mutable-global      (file) No mutable namespace-scope or static-member
                    state: simulations run concurrently on worker threads,
                    so shared mutable state is a data race. std::atomic,
                    thread_local and const/constexpr declarations pass.
no-bare-assert      (file) Use MPSIM_CHECK instead of assert(): bare
                    asserts vanish in RelWithDebInfo, the tier-1 test
                    configuration, silently un-checking the invariant.
trace-discipline    (file) Instrumentation goes through the MPSIM_TRACE
                    macro, never TraceRecorder::append_unchecked() directly:
                    the macro carries the null-recorder check and the
                    [[unlikely]] hint. src/trace/ is exempt.
registry-discipline (file) Registry registrations (add_topology /
                    add_algorithm / add_traffic) live in
                    src/scenario/builders.cpp only, and every key there is
                    lowercase [a-z0-9_]+ and unique per kind, so
                    `mpsim list`, the spec grammar and the registry cannot
                    drift apart. src/scenario/registry.* (the declarations)
                    is exempt.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ALLOC_RE = re.compile(
    r"\bnew\s+[A-Za-z_:(]|std::make_unique|std::make_shared"
    r"|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
    r"|\.\s*(?:push_back|emplace_back|emplace|resize|insert|append"
    r"|reserve)\s*\(|std::to_string\s*\(")
IO_RE = re.compile(
    r"std::cout|std::cerr|std::clog|\bprintf\s*\(|\bfprintf\s*\("
    r"|\bfopen\s*\(|\bfwrite\s*\(|\bfread\s*\(|\bfflush\s*\("
    r"|std::(?:i|o)?fstream|std::getline|\bsystem\s*\(")
STATIC_LOCAL_RE = re.compile(r"^\s*static\s+(?!const\b|constexpr\b)\w")
CLOCK_RE = re.compile(
    r"std::chrono|steady_clock|system_clock|high_resolution_clock"
    r"|\bgettimeofday\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bclock\s*\(\s*\)")
RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|std::mt19937"
    r"|std::minstd_rand|std::default_random_engine"
    r"|std::uniform_int_distribution|std::uniform_real_distribution")
SIMTIME_CAST_RE = re.compile(
    r"(static_cast<\s*SimTime\s*>|\bSimTime\s*\()[^;]*\b1e[369]\b")
# `delete` must be followed by an operand (`= delete;` declarations are
# not deallocations).
POOL_RE = re.compile(
    r"\bnew\s+Packet\b|\bdelete\s*(?:\[\s*\]\s*)?[\w(*&]"
    r"|\bmalloc\s*\(|\bfree\s*\(")
ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")
TRACE_APPEND_RE = re.compile(r"\bappend_unchecked\s*\(")
# A registration call, not a `void` / `Registry::` declaration.
REGISTRY_CALL_RE = re.compile(
    r"(?<!void )(?<!:)\badd_(topology|algorithm|traffic)\s*\(")
# Literal keys in builders.cpp, matched on raw text (a key may wrap onto
# the line after the call).
REGISTRY_KEY_RE = re.compile(
    r"\badd_(topology|algorithm|traffic)\s*\(\s*\"([^\"]*)\"")

PKT_SOURCE_RE = re.compile(r"\bPacket::alloc\s*\(|\bpool\b[\w.]*\.alloc\s*\(")
PKT_TRANSFER_RE = re.compile(
    r"\.\s*(?:send_on|advance|release|receive_shipped)\s*\(|\bpush_back\s*\("
    r"|\breturn\b[^;]*\balloc\s*\(|\breturn\s+(?:\*?\s*)?p\b")

GLOBAL_DECL_RE = re.compile(
    r"^(?:static\s+)?(?:thread_local\s+)?[\w:<>,\s*&]+?"
    r"[\w:]+\s*(=|\{[^()]*\}\s*;|;\s*$)")
DECL_KEYWORDS = (
    "class", "struct", "enum", "union", "using", "typedef", "template",
    "namespace", "extern", "friend", "public", "private", "protected",
    "return", "if", "for", "while", "switch", "case", "default", "do",
    "else", "static_assert", "inline namespace",
)


def _search(regex: re.Pattern) -> Callable:
    return lambda lf, i: regex.search(lf.code[i]) is not None


def _simtime_cast(lf, i: int) -> bool:
    """Casts wrap over up to three lines: match the line joined with its
    two successors, and report only where the cast starts."""
    m = SIMTIME_CAST_RE.search(" ".join(lf.code[i:i + 3]))
    return m is not None and m.group(1) in lf.code[i]


def _mutable_global(lf, i: int) -> bool:
    """A variable definition at namespace scope (`type name = ...;`,
    `type name{...};`, `type Class::member = ...;`) that is not const,
    atomic or thread_local. Functions have a parameter list before any
    initializer; indented lines are not namespace scope."""
    stripped = lf.code[i].strip()
    if not stripped or lf.lines[i][:1].isspace():
        return False
    first_word = re.split(r"[\s<:&*]+", stripped, maxsplit=1)[0]
    if first_word in DECL_KEYWORDS or stripped.startswith(("#", "}")):
        return False
    decl = GLOBAL_DECL_RE.match(stripped)
    if not decl:
        return False
    paren = stripped.find("(")
    if paren != -1 and paren < stripped.find(decl.group(1)):
        return False
    return not re.search(r"\bconst\b|\bconstexpr\b|\bconsteval\b"
                         r"|std::atomic|thread_local", stripped)


@dataclass(frozen=True)
class Rule:
    name: str
    scope: str         # "file", "hot" or "union"
    match: Callable    # (LexedFile, 0-based line index) -> bool
    message: str
    exempt: tuple = ()  # path fragments the file-wide half skips


LINE_RULES = (
    Rule("hot-alloc", "hot", _search(ALLOC_RE),
         "heap allocation on an event-dispatch path; use the SimArena "
         "columns, the packet pool, or reserved storage"),
    Rule("hot-io", "hot", _search(IO_RE),
         "blocking I/O on an event-dispatch path; buffer into the flight "
         "recorder and flush after the run"),
    Rule("hot-static", "hot", _search(STATIC_LOCAL_RE),
         "function-local static mutable state races across parallel "
         "simulations; use per-EventList services"),
    Rule("determinism-clock", "union", _search(CLOCK_RE),
         "wall-clock read; results must be a pure function of (spec, seed)",
         exempt=("/runner/",)),
    Rule("determinism-rand", "union", _search(RAND_RE),
         "unseeded randomness; all randomness must flow through the seeded "
         "mpsim::Rng", exempt=("/core/rng",)),
    # A union rule whose halves both exempt time.hpp: file-wide outside it.
    Rule("simtime-discipline", "file", _simtime_cast,
         "build SimTime with from_ns/us/ms/sec(), not raw 1e3/1e6/1e9 unit "
         "factors", exempt=("/core/time.hpp",)),
    Rule("pool-discipline", "file", _search(POOL_RE),
         "packets are pool-allocated; use Packet::alloc() / release()",
         exempt=("/net/packet.cpp",)),
    Rule("mutable-global", "file", _mutable_global,
         "mutable namespace-scope state races across parallel simulations; "
         "use per-EventList services, std::atomic, or thread_local"),
    Rule("no-bare-assert", "file", _search(ASSERT_RE),
         "use MPSIM_CHECK (active in RelWithDebInfo) instead of assert()"),
    Rule("trace-discipline", "file", _search(TRACE_APPEND_RE),
         "record through MPSIM_TRACE(recorder, builder); a direct "
         "append_unchecked() skips the null-recorder guard",
         exempt=("/trace/",)),
    Rule("registry-discipline", "file", _search(REGISTRY_CALL_RE),
         "topology/algorithm/traffic registrations live in "
         "src/scenario/builders.cpp only",
         exempt=("/scenario/registry", "/scenario/builders.cpp")),
)
RULE_NAMES = tuple(r.name for r in LINE_RULES) + ("packet-ownership",)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    func: str  # enclosing hot function, or ''
    message: str

    def __str__(self) -> str:
        where = f"{self.func}: " if self.func else ""
        return f"{self.path}:{self.line}: [{self.rule}] {where}{self.message}"


class _Reporter:
    """Collects findings, honoring allow comments and recording which
    allows suppressed something (the rest feed --check-stale-allows)."""

    def __init__(self):
        self.findings: list = []
        self.used_allows: set = set()

    def report(self, lf, line: int, rule: str, func: str, message: str):
        for site in (line, line - 1):
            if rule in lf.allows.get(site, ()):
                self.used_allows.add((lf.path, site))
                return
        self.findings.append(Finding(lf.path, line, rule, func, message))


def run_rules(lexed_files: dict, hot: list):
    """(findings, used_allows) over every file and every hot function.

    lexed_files maps path -> LexedFile; hot is the list of FunctionDef in
    the hot set. used_allows collects (path, line) of every allow comment
    that suppressed something.
    """
    hot_by_path = defaultdict(list)
    for fn in hot:
        hot_by_path[fn.path].append(fn)
    rep = _Reporter()
    for path, lf in lexed_files.items():
        anchored = "/" + path.replace("\\", "/")
        owner: dict = {}  # line -> qualname of the hot body holding it
        for fn in hot_by_path[path]:
            for ln in range(fn.body_start, min(fn.end_line, len(lf.lines)) + 1):
                owner.setdefault(ln, fn.qualname)
        every_line = range(1, len(lf.code) + 1)
        for rule in LINE_RULES:
            if rule.scope != "hot" and \
                    not any(e in anchored for e in rule.exempt):
                lines = every_line
            elif rule.scope != "file":
                lines = sorted(owner)
            else:
                continue
            for ln in lines:
                if rule.match(lf, ln - 1):
                    rep.report(lf, ln, rule.name, owner.get(ln, ""),
                               rule.message)
        if anchored.endswith("/scenario/builders.cpp"):
            _check_registry_keys(lf, rep)
        for fn in hot_by_path[path]:
            _check_packet_ownership(lf, fn, rep)
    rep.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return rep.findings, rep.used_allows


def stale_allows(lexed_files: dict, used_allows: set) -> list:
    """(path, line) of every allow comment that suppressed nothing: standing
    permission for a violation that no longer exists, which the next edit
    could silently reintroduce pre-approved."""
    return sorted((path, line) for path, lf in lexed_files.items()
                  for line in lf.allows if (path, line) not in used_allows)


def _check_registry_keys(lf, rep: _Reporter) -> None:
    """Key discipline inside builders.cpp: lowercase, unique per kind."""
    text = "\n".join(lf.lines)
    seen: dict = {}
    for m in REGISTRY_KEY_RE.finditer(text):
        kind, key = m.group(1), m.group(2)
        line = text.count("\n", 0, m.start()) + 1
        if not re.fullmatch(r"[a-z0-9_]+", key):
            rep.report(lf, line, "registry-discipline", "",
                       f"registry key '{key}' must be lowercase [a-z0-9_]+")
        if (kind, key) in seen:
            rep.report(lf, line, "registry-discipline", "",
                       f"duplicate {kind} key '{key}' (first registered on "
                       f"line {seen[(kind, key)]})")
        else:
            seen[(kind, key)] = line


def _check_packet_ownership(lf, fn, rep: _Reporter) -> None:
    """Local-flow pairing: every Packet::alloc in a body needs a matching
    transfer (send_on/advance/release/fifo push/return) somewhere in the
    same body. Function-level, not path-sensitive: a transfer on any path
    satisfies the rule (MPSIM_CHECK + the pool's conservation ledger cover
    the dynamic cases)."""
    body = range(fn.body_start, min(fn.end_line, len(lf.code)) + 1)
    sources = [ln for ln in body if PKT_SOURCE_RE.search(lf.code[ln - 1])]
    if not sources or any(PKT_TRANSFER_RE.search(lf.code[ln - 1])
                          for ln in body):
        return
    for ln in sources:
        rep.report(lf, ln, "packet-ownership", fn.qualname,
                   "packet taken from the pool but never sent, advanced, "
                   "released or returned in this function — it leaks out "
                   "of the conservation ledger")
