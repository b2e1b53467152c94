#!/usr/bin/env python3
"""dgslint: project-specific static analysis for the DGS determinism and
contract rules (DESIGN.md §13).

Every headline claim this repo makes — byte-identical results across
thread counts, campaign confidence intervals over seeded runs — rests on
the determinism contract of DESIGN.md §9.  That contract used to be
enforced only by after-the-fact byte-equality tests; dgslint makes it
machine-checked at the source level, before a stray `rand()` or an
`unordered_map` iteration in an output path ever reaches a test failure.

Rules (see DESIGN.md §13 for the full table and rationale):

  R1  banned nondeterminism sources (rand, std::random_device, wall
      clocks, argless time(), locale-dependent formatting, raw std
      engines/distributions) outside the sanctioned RNG modules.
  R2  no iteration over std::unordered_map/std::unordered_set in any
      file on an artifact/metrics/event output path (hash order would
      leak into artifacts).
  R3  no raw std::thread / std::async / OpenMP outside
      src/util/thread_pool.* — all parallelism goes through the
      deterministic fork-join pool.
  R4  no bare assert( or ad-hoc throw in src/ — DGS_CHECK / DGS_DCHECK /
      DGS_ENSURE and the structured OptionsError/ArtifactError values
      are the only error channels.
  R5  metric/event/JSON-key hygiene: registered metric names match
      dgs_[a-z0-9_]+ and summary keys used in code appear in the
      kSummaryFields table of src/core/run_artifact.cpp, which must
      parse (every row a known FieldKind, at least one row).
  R6  public headers are self-contained: every src/**/*.h carries
      #pragma once (the compile-level check is the CMake
      dgs_header_selfcontained target, which builds one TU per header).
  R7  options are plain data: no std::function, function pointer or
      other callable member in SimulationOptions or SchedulerConfig —
      anything that shapes a trajectory must be validated, hashed into
      options_crc32 and carried by checkpoints.
  R8  no locks in src/: no std::mutex (any kind), lock guard or
      std::condition_variable outside src/util/thread_pool.* and
      src/obs/trace.cpp — pool lanes write per-index or per-chunk slots,
      and shared state (the weather provider, the metrics) is touched
      from the driver thread only.
  R9  no thread_local in src/ outside src/util/thread_pool.cpp and
      src/obs/trace.cpp — per-thread memos are hidden state; hoist a
      constant to where its inputs are fixed (the VisibilityEngine's link
      kernels) instead.
  R10 every option member is walked: each data member of
      SimulationOptions, the fault plan's structs and TenantSpec is named
      in walk_options (src/core/simulator.h), the one list validate(),
      options_crc32 and the options fuzzer share, or sits on the
      exclusion list (parallel, metrics, events).
  R11 numeric text is parsed whole: no atoi/atof/atol, std::sto*, or
      strtod/strtol/strtoul/strtoull in src/ or examples/ — they stop at
      the first bad character, skip leading spaces or throw their own
      exceptions; util::parse_whole / util::parse_number
      (src/util/parse.h) read the whole text or report failure.
  SUP suppression-comment hygiene: every `dgslint: allow(...)` names
      known rules and carries a `-- reason`.

Suppressions: append to the offending line, or place on the line above:

    foo();  // dgslint: allow(R1) -- reason why this one is fine
    // dgslint: allow(R4,R1) -- reasons may cover several rules

Baseline: grandfathered findings live in tools/dgslint/baseline.json as
{"rule", "path", "count"} entries; up to `count` findings of that rule in
that file are reported as baselined instead of failing.  The baseline
must stay empty for src/ (enforced by policy, not by this tool).

Exit codes: 0 clean, 1 findings (or stale baseline in --verify-baseline
mode), 2 usage/configuration error.  Dependency-free: stdlib only.
"""

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Configuration: scanned trees and per-rule whitelists (repo-relative,
# forward-slash paths).  Whitelisted files are the *implementations* of
# the sanctioned facility a rule funnels everyone else toward.

SCAN_ROOTS = ("src", "bench", "examples", "tests")
SOURCE_EXTENSIONS = (".h", ".cpp")
# The fixture corpus exercises the rules on purpose.
EXCLUDED_DIRS = ("tests/dgslint_fixtures",)

WHITELIST = {
    # Sanctioned RNG wrappers: the seeded engine behind util::Rng and the
    # PCG32/SplitMix64 streams of the fault subsystem — plus the poison
    # header, which must spell every banned token to ban it.
    "R1": ("src/util/rng.h", "src/faults/fault_rng.h",
           "src/util/determinism.h"),
    # The deterministic fork-join pool is the one owner of raw threads.
    "R3": ("src/util/thread_pool.h", "src/util/thread_pool.cpp"),
    # The contract layer itself must throw/abort to implement DGS_ENSURE.
    "R4": ("src/util/check.h", "src/util/check.cpp"),
    # The pool's fork-join handshake is the one lock on the step path; the
    # trace collector locks its per-thread buffers against an exporter.
    "R8": ("src/util/thread_pool.h", "src/util/thread_pool.cpp",
           "src/obs/trace.cpp"),
    # The pool's in-region flag and the trace collector's per-thread buffer
    # are the sanctioned per-thread state.
    "R9": ("src/util/thread_pool.cpp", "src/obs/trace.cpp"),
}

# R4 applies to src/ only: tests legitimately throw to exercise error
# paths, and bench/example binaries surface environment failures ad hoc.
R4_SCOPE = "src/"

# R2: a file is on an output path when it lives in an artifact/metrics
# module or includes one of their headers.
OUTPUT_PATH_DIRS = ("src/obs/", "src/campaign/", "src/netdesign/")
OUTPUT_PATH_FILES = (
    "src/core/run_artifact.cpp",
    "src/core/run_artifact.h",
    "src/core/report.h",
    "src/core/checkpoint.cpp",
    "src/core/checkpoint.h",
    "src/core/session.cpp",
    "src/core/session.h",
)
OUTPUT_PATH_INCLUDES = (
    "src/core/run_artifact.h",
    "src/core/report.h",
    "src/core/checkpoint.h",
    "src/core/session.h",
    "src/obs/metrics.h",
    "src/obs/events.h",
)

SUMMARY_TABLE_FILE = "src/core/run_artifact.cpp"

METRIC_NAME_RE = re.compile(r"^dgs_[a-z0-9_]+$")

RULE_TITLES = {
    "R1": "banned nondeterminism source",
    "R2": "unordered-container iteration on an output path",
    "R3": "raw threading outside the deterministic pool",
    "R4": "ad-hoc error channel in src/",
    "R5": "metric/summary-key hygiene",
    "R6": "header self-containment",
    "R7": "callable member in an options struct",
    "R8": "lock outside the pool and the trace collector",
    "R9": "thread_local outside the pool and the trace collector",
    "R10": "option member not visited by walk_options",
    "R11": "numeric text not parsed whole",
    "SUP": "malformed dgslint suppression",
}

SUPPRESSION_RE = re.compile(
    r"//\s*dgslint:\s*allow\(([^)]*)\)(\s*--\s*(\S.*))?")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # repo-relative, forward slashes
        self.line = line  # 1-based
        self.message = message
        self.baselined = False

    def to_json(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "baselined": self.baselined,
        }


class SourceFile:
    """One scanned file with raw text and two comment-stripped views.

    `code` has comments and string/char literals blanked (for token
    rules); `code_strings` has only comments blanked (for rules that
    inspect string literals).  Both preserve offsets and line breaks so
    line numbers can be derived from match positions.
    """

    def __init__(self, path, relpath, text):
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.code_strings = _strip(text, strip_strings=False)
        self.code = _strip(text, strip_strings=True)
        self.suppressions = _parse_suppressions(self.lines)

    def line_of(self, offset):
        return self.text.count("\n", 0, offset) + 1

    def allowed(self, rule, line):
        """True when `rule` is suppressed on `line` or the line above."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and rule in rules:
                return True
        return False


def _strip(text, strip_strings):
    """Blanks comments (and optionally string/char literals) with spaces,
    preserving newlines and total length."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "string"
                if strip_strings:
                    out[i] = " "
                i += 1
                continue
            if c == "'":
                state = "char"
                if strip_strings:
                    out[i] = " "
                i += 1
                continue
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                if strip_strings:
                    out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                if strip_strings:
                    out[i] = " "
                state = "code"
            elif strip_strings and c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def _parse_suppressions(lines):
    """Maps 1-based line number -> set of rule ids allowed there.

    Malformed suppressions map to the sentinel rule name "!bad:<detail>"
    so the SUP rule can report them.
    """
    result = {}
    for idx, line in enumerate(lines, start=1):
        m = SUPPRESSION_RE.search(line)
        if not m:
            if "dgslint:" in line and "allow" in line:
                result[idx] = {"!bad:unparseable dgslint comment"}
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        bad = {r for r in rules if r not in RULE_TITLES or r == "SUP"}
        if bad:
            result[idx] = {
                "!bad:unknown rule(s) " + ", ".join(sorted(bad))}
            continue
        if not m.group(3):
            result[idx] = {"!bad:missing '-- reason'"}
            continue
        result[idx] = rules
    return result


# ---------------------------------------------------------------------------
# Rule implementations.  Each checker takes (SourceFile, context) and
# yields Finding objects; suppression and baseline filtering happen in
# the driver.

R1_PATTERNS = (
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() — draw from a seeded util::Rng or faults::Pcg32"),
    (re.compile(r"\b[dlm]rand48\b|\brandom_r\b"),
     "C library RNG — draw from a seeded util::Rng or faults::Pcg32"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is entropy, not a seed — use an explicit seed"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall clock — simulation time comes from StepClock/util::Epoch"),
    (re.compile(r"(?<![\w.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "argless time() — simulation time comes from StepClock/util::Epoch"),
    (re.compile(r"\b(setlocale|localtime|gmtime_r?|strftime|put_time)\b"
                r"|std::locale\b"),
     "locale/calendar formatting — artifact text must be locale-free"),
    (re.compile(r"\b(mt19937(_64)?|default_random_engine|minstd_rand0?"
                r"|ranlux\w+|knuth_b)\b"),
     "raw std engine — only util::Rng / faults::Pcg32 streams"),
    (re.compile(r"\b(uniform_(real|int)|normal|exponential|bernoulli|"
                r"poisson|geometric|binomial)_distribution\b"),
     "std distributions are implementation-defined — use util::Rng"),
)


def check_r1(f, ctx):
    del ctx
    for pattern, why in R1_PATTERNS:
        for m in pattern.finditer(f.code):
            yield Finding("R1", f.relpath, f.line_of(m.start()),
                          "%s (matched '%s')" % (why, m.group(0).strip()))


UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;(){]*?>\s+(\w+)\s*[;={(\[]")
UNORDERED_IN_FOR_RE = re.compile(r"\bfor\s*\([^;)]*unordered_(?:map|set)\b")


def _is_output_path(f):
    rel = f.relpath
    if rel in OUTPUT_PATH_FILES:
        return True
    if any(rel.startswith(d) for d in OUTPUT_PATH_DIRS):
        return True
    return any('#include "%s"' % inc in f.text
               for inc in OUTPUT_PATH_INCLUDES)


def check_r2(f, ctx):
    del ctx
    if not _is_output_path(f):
        return
    why = ("hash order would leak into artifacts/metrics/events — "
           "use a sorted or vector container on output paths")
    for m in UNORDERED_IN_FOR_RE.finditer(f.code):
        yield Finding("R2", f.relpath, f.line_of(m.start()), why)
    names = {m.group(1) for m in UNORDERED_DECL_RE.finditer(f.code)}
    for name in sorted(names):
        iter_re = re.compile(
            r"\bfor\s*\([^;)]*:\s*(?:\w+\.)*%s\s*\)|"
            r"\b%s\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(" % (name, name))
        for m in iter_re.finditer(f.code):
            if UNORDERED_IN_FOR_RE.match(m.group(0)):
                continue  # already reported above
            yield Finding("R2", f.relpath, f.line_of(m.start()),
                          "iteration over unordered container '%s' — %s"
                          % (name, why))


R3_PATTERNS = (
    (re.compile(r"\bstd::j?thread\b"),
     "raw std::thread — parallelism goes through util::ThreadPool"),
    (re.compile(r"\bstd::async\b"),
     "std::async — parallelism goes through util::ThreadPool"),
    (re.compile(r"#\s*pragma\s+omp\b|#\s*include\s*<omp\.h>"),
     "OpenMP — parallelism goes through util::ThreadPool"),
    (re.compile(r"\bpthread_create\b"),
     "raw pthreads — parallelism goes through util::ThreadPool"),
)


def check_r3(f, ctx):
    del ctx
    for pattern, why in R3_PATTERNS:
        for m in pattern.finditer(f.code):
            yield Finding("R3", f.relpath, f.line_of(m.start()), why)


R4_ASSERT_RE = re.compile(r"(?<!static_)\bassert\s*\(")
R4_THROW_RE = re.compile(r"\bthrow\b")


def check_r4(f, ctx):
    del ctx
    if not f.relpath.startswith(R4_SCOPE):
        return
    for m in R4_ASSERT_RE.finditer(f.code):
        yield Finding("R4", f.relpath, f.line_of(m.start()),
                      "bare assert() — use DGS_CHECK/DGS_DCHECK")
    for m in R4_THROW_RE.finditer(f.code):
        yield Finding(
            "R4", f.relpath, f.line_of(m.start()),
            "ad-hoc throw — route errors through DGS_ENSURE or a "
            "structured *Error value (allow(R4) with a reason for "
            "documented exception contracts)")


METRIC_CALL_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
SUMMARY_KEY_USE_RE = re.compile(r"\.\s*(?:scalar|stats)\s*\(\s*\"([^\"]*)\"")
# The summary's FieldSpec table: `kSummaryFields[] = { ... };`, one
# `{"key", kKind, getter}` row per member.
SUMMARY_TABLE_RE = re.compile(
    r"\bkSummaryFields\s*\[\s*\]\s*=\s*\{(.*?)\n\};", re.S)
SUMMARY_ROW_RE = re.compile(
    r"\{\s*\"([A-Za-z0-9_]+)\"\s*,\s*(?:FieldKind::)?(\w+)")
# The FieldKind enumerators of src/core/run_artifact.h.
FIELD_KINDS = ("kInt", "kReal", "kReal3", "kBool", "kString", "kStats",
               "kTenants")


def parse_summary_table(text):
    """Returns (keys, problems) for the kSummaryFields table in `text`.

    A problem is an (offset, message) pair: no table, a row whose kind is
    not a FieldKind, or a table with no rows.  Any of them would silently
    empty the key set the summary-key check compares against.
    """
    table = SUMMARY_TABLE_RE.search(text)
    if table is None:
        return set(), [(0, "no kSummaryFields table found; the R5 "
                           "summary-key check needs one")]
    keys, problems = set(), []
    for row in SUMMARY_ROW_RE.finditer(table.group(1)):
        key, kind = row.groups()
        if kind in FIELD_KINDS:
            keys.add(key)
        else:
            problems.append((
                table.start(1) + row.start(),
                "summary row '%s' has kind '%s', which is not a FieldKind "
                "(%s)" % (key, kind, ", ".join(FIELD_KINDS))))
    if not keys and not problems:
        problems.append((table.start(), "kSummaryFields parses to no keys"))
    return keys, problems


def check_r5(f, ctx):
    for m in METRIC_CALL_RE.finditer(f.code_strings):
        name = m.group(1)
        if not METRIC_NAME_RE.match(name):
            yield Finding(
                "R5", f.relpath, f.line_of(m.start()),
                "metric name '%s' does not match dgs_[a-z0-9_]+" % name)
    if f.relpath == SUMMARY_TABLE_FILE:
        for offset, message in parse_summary_table(f.code_strings)[1]:
            yield Finding("R5", f.relpath, f.line_of(offset), message)
    summary_keys = ctx.get("summary_keys")
    if summary_keys is None:
        return
    for m in SUMMARY_KEY_USE_RE.finditer(f.code_strings):
        key = m.group(1)
        if key not in summary_keys:
            yield Finding(
                "R5", f.relpath, f.line_of(m.start()),
                "summary key '%s' is not in the kSummaryFields table "
                "of %s" % (key, SUMMARY_TABLE_FILE))


def check_r6(f, ctx):
    del ctx
    if not (f.relpath.startswith("src/") and f.relpath.endswith(".h")):
        return
    if "#pragma once" not in f.text:
        yield Finding("R6", f.relpath, 1,
                      "public header without #pragma once (the "
                      "dgs_header_selfcontained CMake target compiles "
                      "each header standalone)")


# R7: the option structs whose members must all be plain data.
R7_STRUCTS = ("SimulationOptions", "SchedulerConfig")
R7_STRUCT_RE = re.compile(
    r"\b(?:struct|class)\s+(%s)\b[^;{]*\{" % "|".join(R7_STRUCTS))
CALLABLE_TEMPLATE_RE = re.compile(
    r"\bstd::(?:function|move_only_function|copyable_function|function_ref)"
    r"\s*<")
# `using Name = std::function<...>` / `using Name = R (*)(...)` and
# `typedef R (*Name)(...)`: aliases that name a callable type.
CALLABLE_USING_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:[^;]*?\bstd::(?:function|move_only_function|"
    r"copyable_function|function_ref)\s*<|[^;(]*\(\s*(?:\w+::)*\*\s*\)\s*\()")
CALLABLE_TYPEDEF_RE = re.compile(
    r"\btypedef\b[^;]*\(\s*(?:\w+::)*\*\s*(\w+)\s*\)\s*\(")
FUNCTION_POINTER_MEMBER_RE = re.compile(r"\(\s*(?:\w+::)*\*\s*\w+\s*\)\s*\(")


def callable_aliases(files):
    """Names every scanned file declares as an alias of a callable type."""
    names = set()
    for f in files:
        names.update(m.group(1) for m in CALLABLE_USING_RE.finditer(f.code))
        names.update(m.group(1) for m in CALLABLE_TYPEDEF_RE.finditer(f.code))
    return names


def _struct_members(code, open_brace):
    """Yields (offset, text) of each top-level declaration in the struct
    body opening at `open_brace`; nested brace contents are emptied and an
    inline function body ends its declaration.  Braces inside parentheses
    (a `= {}` default argument) are kept as text."""
    depth, parens, start, flat = 0, 0, open_brace + 1, []
    for i in range(open_brace + 1, len(code)):
        c = code[i]
        if depth == 0 and c in "()":
            parens += 1 if c == "(" else -1
        if parens > 0:
            flat.append(c)
            continue
        if c == "{":
            depth += 1
            if depth == 1:
                flat.append(c)
            continue
        if c == "}":
            if depth == 0:
                break
            depth -= 1
            if depth == 0:
                flat.append(c)
                if "(" in "".join(flat):  # an inline function body
                    yield start, "".join(flat)
                    flat, start = [], i + 1
            continue
        if depth > 0:
            continue
        if c == ";":
            yield start, "".join(flat)
            flat, start = [], i + 1
        else:
            flat.append(c)


def _is_callable_member(stmt, aliases):
    stmt = re.sub(r"^\s*(?:(?:public|private|protected)\s*:\s*)+", "", stmt)
    if FUNCTION_POINTER_MEMBER_RE.search(stmt):
        return True
    # Drop default initializers, then template arguments: what remains of
    # a member function declaration still has its parameter list.
    decl = re.split(r"=", stmt, maxsplit=1)[0]
    flat = decl
    while True:
        nested = re.sub(r"<[^<>]*>", "", flat)
        if nested == flat:
            break
        flat = nested
    if "(" in flat or re.match(r"\s*(?:using|typedef|friend|template)\b",
                               flat):
        return False
    if CALLABLE_TEMPLATE_RE.search(decl):
        return True
    return any(re.search(r"\b%s\b" % re.escape(a), flat) for a in aliases)


def check_r7(f, ctx):
    aliases = ctx.get("callable_aliases", set())
    for m in R7_STRUCT_RE.finditer(f.code):
        for offset, stmt in _struct_members(f.code, m.end() - 1):
            if _is_callable_member(stmt, aliases):
                lead = len(stmt) - len(stmt.lstrip())
                yield Finding(
                    "R7", f.relpath, f.line_of(offset + lead),
                    "callable member in %s — options are plain data "
                    "(validated, hashed into options_crc32, carried by "
                    "checkpoints); express the policy as a table"
                    % m.group(1))


# R8: locks belong to the pool's handshake and the trace buffers
# (WHITELIST); src/ only.
R8_SCOPE = "src/"
R8_RE = re.compile(
    r"\bstd::(?:(?:recursive_|shared_)?(?:timed_)?mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b")


def check_r8(f, ctx):
    del ctx
    if not f.relpath.startswith(R8_SCOPE):
        return
    for m in R8_RE.finditer(f.code):
        yield Finding(
            "R8", f.relpath, f.line_of(m.start()),
            "%s outside the pool and the trace collector — call shared "
            "state from the driver thread, or give each lane its own slot"
            % m.group(0))


# R9: per-thread state belongs to the pool and the trace collector
# (WHITELIST); src/ only.
R9_SCOPE = "src/"
R9_RE = re.compile(r"\bthread_local\b")


def check_r9(f, ctx):
    del ctx
    if not f.relpath.startswith(R9_SCOPE):
        return
    for m in R9_RE.finditer(f.code):
        yield Finding(
            "R9", f.relpath, f.line_of(m.start()),
            "thread_local outside the pool and the trace collector — a "
            "per-thread memo is hidden state; compute the value once where "
            "its inputs are fixed and pass it in")


# R10: walk_options is the one list of the options that shape a
# trajectory; a member it does not name is neither validated nor hashed.
R10_WALK_FILE = "src/core/simulator.h"
R10_STRUCTS = {
    "src/core/simulator.h": ("SimulationOptions",),
    "src/faults/fault_plan.h": ("FaultPlan", "OutageWindow", "StationChurn",
                                "BackhaulFault", "AckRelayFaults",
                                "PlanUploadFaults"),
    "src/core/market.h": ("TenantSpec",),
}
# Not walked on purpose: results are identical at any thread count, and
# the sinks only observe.
R10_EXCLUDED = ("parallel", "metrics", "events")
R10_WALK_RE = re.compile(r"\bvoid\s+walk_options\s*\([^)]*\)\s*\{")
R10_ACCESS_RE = re.compile(r"(?:\.|->)\s*(\w+)")


def walked_members(files):
    """Names the walk body accesses as members, or None when the walk's
    file is not in the scan (fixture roots without an R10 corpus).  An
    empty set means the file holds no walk."""
    for f in files:
        if f.relpath != R10_WALK_FILE:
            continue
        m = R10_WALK_RE.search(f.code)
        if m is None:
            return set()
        depth, end = 1, m.end()
        while depth and end < len(f.code):
            depth += {"{": 1, "}": -1}.get(f.code[end], 0)
            end += 1
        return set(R10_ACCESS_RE.findall(f.code[m.end():end]))
    return None


def _data_member_name(stmt):
    """The declared name of a data member, or None for anything else."""
    stmt = re.sub(r"^\s*(?:(?:public|private|protected)\s*:\s*)+", "", stmt)
    decl = re.split(r"[={]", stmt, maxsplit=1)[0].strip()
    if not decl or "(" in decl or re.match(
            r"(?:using|typedef|friend|template|static|enum|struct|class)\b",
            decl):
        return None
    m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?$", decl)
    return m.group(1) if m else None


def check_r10(f, ctx):
    structs = R10_STRUCTS.get(f.relpath)
    walked = ctx.get("walked_members")
    if not structs or walked is None:
        return
    if not walked:
        if f.relpath == R10_WALK_FILE:
            yield Finding("R10", f.relpath, 1,
                          "no walk_options body found; R10 needs one to "
                          "check the option members against")
        return
    for name in structs:
        m = re.search(r"\b(?:struct|class)\s+%s\b[^;{]*\{" % name, f.code)
        if m is None:
            yield Finding("R10", f.relpath, 1,
                          "struct %s not found; move its R10 entry with it"
                          % name)
            continue
        for offset, stmt in _struct_members(f.code, m.end() - 1):
            member = _data_member_name(stmt)
            if member is None or member in walked or member in R10_EXCLUDED:
                continue
            lead = len(stmt) - len(stmt.lstrip())
            yield Finding(
                "R10", f.relpath, f.line_of(offset + lead),
                "%s::%s is not visited by walk_options (%s), so validate() "
                "never checks it and options_crc32 never hashes it; walk it, "
                "or add it to R10_EXCLUDED with the reason it shapes no "
                "trajectory" % (name, member, R10_WALK_FILE))


# R11: numeric text is read whole through src/util/parse.h; the C library
# parsers accept "12abc" as 12.  src/ and examples/ only.
R11_SCOPES = ("src/", "examples/")
R11_RE = re.compile(
    r"(?<![\w.>])(?:std::)?(atoi|atof|atol|stoi|stol|stoul|stod|stof|strtod|"
    r"strtol|strtoul|strtoull)\s*\(")


def check_r11(f, ctx):
    del ctx
    if not f.relpath.startswith(R11_SCOPES):
        return
    for m in R11_RE.finditer(f.code):
        yield Finding(
            "R11", f.relpath, f.line_of(m.start()),
            "%s() does not read its text whole (\"12abc\" parses as 12) — "
            "use util::parse_whole or util::parse_number (src/util/parse.h)"
            % m.group(1))


def check_sup(f, ctx):
    del ctx
    for line, rules in sorted(f.suppressions.items()):
        for r in rules:
            if r.startswith("!bad:"):
                yield Finding("SUP", f.relpath, line,
                              "malformed suppression: %s — use "
                              "'// dgslint: allow(R<n>) -- reason'"
                              % r[len("!bad:"):])


CHECKERS = (check_r1, check_r2, check_r3, check_r4, check_r5, check_r6,
            check_r7, check_r8, check_r9, check_r10, check_r11, check_sup)


# ---------------------------------------------------------------------------
# Driver.

def iter_source_files(root, only_paths=None):
    if only_paths:
        for p in only_paths:
            rel = os.path.relpath(os.path.abspath(p), root).replace(
                os.sep, "/")
            yield p, rel
        return
    for scan_root in SCAN_ROOTS:
        top = os.path.join(root, scan_root)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            dirnames[:] = [
                d for d in sorted(dirnames)
                if not any((rel_dir + "/" + d).startswith(e) or
                           (rel_dir + "/" + d) == e
                           for e in EXCLUDED_DIRS)]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield (os.path.join(dirpath, name),
                           rel_dir + "/" + name)


def load_summary_keys(root):
    """Parses the summary keys out of run_artifact.cpp's kSummaryFields.

    Returns None when the file is absent (fixture roots without an R5
    corpus) so the key check is skipped rather than failing spuriously.
    A file whose table parses to no keys yields an empty set (every key
    use is then flagged) and, through check_r5, a finding of its own.
    """
    path = os.path.join(root, SUMMARY_TABLE_FILE)
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        text = _strip(fh.read(), strip_strings=False)
    return parse_summary_table(text)[0]


def load_baseline(path):
    if not path or not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("entries", [])
    for e in entries:
        if not {"rule", "path", "count"} <= set(e):
            raise SystemExit(
                "dgslint: baseline entry missing rule/path/count: %r" % e)
    return entries


def apply_baseline(findings, entries):
    budget = {(e["rule"], e["path"]): int(e["count"]) for e in entries}
    for f in findings:
        key = (f.rule, f.path)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            f.baselined = True
    return findings


def verify_baseline(root, entries):
    """Entries for files that no longer exist are a failure (CI format
    job runs this so the baseline can only ever shrink truthfully)."""
    stale = [e for e in entries
             if not os.path.isfile(os.path.join(root, e["path"]))]
    for e in stale:
        print("dgslint: stale baseline entry: %s (%s) — file no longer "
              "exists" % (e["path"], e["rule"]))
    return len(stale) == 0


def scan(root, only_paths=None):
    files = []
    for path, rel in iter_source_files(root, only_paths):
        with open(path, encoding="utf-8") as fh:
            files.append(SourceFile(path, rel, fh.read()))
    ctx = {"summary_keys": load_summary_keys(root),
           "callable_aliases": callable_aliases(files),
           "walked_members": walked_members(files)}
    findings = []
    for f in files:
        for checker in CHECKERS:
            for finding in checker(f, ctx):
                # SUP findings are themselves unsuppressable.
                if finding.rule != "SUP":
                    if f.relpath in WHITELIST.get(finding.rule, ()):
                        continue
                    if f.allowed(finding.rule, finding.line):
                        continue
                findings.append(finding)
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return findings


def emit(findings, fmt):
    active = [f for f in findings if not f.baselined]
    if fmt == "json":
        print(json.dumps({
            "tool": "dgslint",
            "findings": [f.to_json() for f in findings],
            "counts": {"active": len(active),
                       "baselined": len(findings) - len(active)},
        }, indent=2))
        return
    for f in findings:
        if fmt == "github" and not f.baselined:
            print("::error file=%s,line=%d,title=dgslint %s (%s)::%s"
                  % (f.path, f.line, f.rule, RULE_TITLES[f.rule],
                     f.message))
        else:
            tag = " [baselined]" if f.baselined else ""
            print("%s:%d: [%s]%s %s"
                  % (f.path, f.line, f.rule, tag, f.message))
    if fmt != "github":
        print("dgslint: %d finding(s), %d baselined"
              % (len(active), len(findings) - len(active)))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dgslint", description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above "
                             "this script)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: baseline.json next "
                             "to this script)")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text")
    parser.add_argument("--verify-baseline", action="store_true",
                        help="only check that baseline entries reference "
                             "files that still exist")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="restrict the scan to these files")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULE_TITLES):
            print("%-4s %s" % (rule, RULE_TITLES[rule]))
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))
    baseline_path = args.baseline or os.path.join(script_dir,
                                                  "baseline.json")
    entries = load_baseline(baseline_path)

    if args.verify_baseline:
        return 0 if verify_baseline(root, entries) else 1

    findings = apply_baseline(scan(root, args.paths), entries)
    emit(findings, args.format)
    return 1 if any(not f.baselined for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
