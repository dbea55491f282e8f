#!/usr/bin/env python3
"""vebo_lint: repo-invariant linter for the VEBO codebase.

The invariants this enforces are the ones the test suite cannot see
compile-time drift in:

  clock-calls     Raw clock reads (`steady_clock::now`, `system_clock::now`,
                  typedef'd `clock::now` / `Clock::now`) are allowed only at
                  the sanctioned telemetry sites; everything else must route
                  through them so tests can drive fake timestamps.
  raw-mutex       `std::mutex` / `std::lock_guard` / friends (and their
                  includes) appear only inside support/annotated_mutex.hpp —
                  every other lock goes through the thread-safety-annotated
                  wrappers so clang -Wthread-safety sees it.
  hot-atomics     On the armed/fault hot-path files, every atomic .load() /
                  .store() names an explicit std::memory_order — a default
                  seq_cst op there is a silent fence on the serving fast path.
  kernel-purity   The dense kernel bodies (`edge_map_pull_range`,
                  `edge_fold_ranges`) stay free of SpanScope / StageScope /
                  record_stage / poll_cancellation — tracing and cancellation
                  live at superstep boundaries, never per-edge.
  metric-names    Every `"vebo_*"` string literal in src/ is pinned by
                  tests/test_obs.cpp (the pinned-name exposition test) — a
                  new metric name lands in the test or does not land at all.
  dense-scheduling  No file in src/ outside src/framework/ calls
                  `partition_loop()`, `dense_chunk_loop()` or
                  `dense_chunks()` — dense loops go through
                  `for_dense_ranges` or `edge_fold`, so there is one dense
                  scheduler.
  bench-record    No file in bench/ outside bench/bench_common.hpp opens a
                  `std::ofstream` — a bench writes its BENCH_*.json through
                  bench::Record and any other file through
                  bench::write_file, so there is one writer.

Suppression: append on the offending line (or the line directly above)

    // vebo-lint: disable=<rule-id> -- <one-line justification>

An empty justification is itself an error (rule-id `bad-suppression`).

Self-test: `--self-test` runs every rule against tools/lint/fixtures/ and
exits nonzero if any fixture's declared expectation (first line,
`// vebo-lint-fixture: <rule-id>` or `// vebo-lint-fixture: ok`) is not
met — i.e. a rule failed to fire on its known-bad snippet, fired on a
clean/suppressed one, or the wrong rule fired.
"""

import argparse
import os
import re
import sys

RULE_IDS = (
    "clock-calls",
    "raw-mutex",
    "hot-atomics",
    "kernel-purity",
    "metric-names",
    "dense-scheduling",
    "bench-record",
)

# --- per-rule configuration (paths are repo-root-relative) -----------------

# The sanctioned clock-read sites: the Timer and deadline owners and the
# telemetry stamp helper (obs detail::now_ns).
CLOCK_ALLOWED_FILES = {
    "src/support/timer.hpp",
    "src/framework/cancel.hpp",
    "src/obs/trace.cpp",
}
CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock|[Cc]lock)::now\s*\("
)

MUTEX_HOME = "src/support/annotated_mutex.hpp"
MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex)>"
)

# Armed/fault hot-path files: one relaxed load when disarmed is the whole
# cost contract, so a default (seq_cst) atomic op here is a regression.
# Fixtures opt in with the marker comment instead of the path list.
HOT_ATOMIC_FILES = {
    "src/support/fault.hpp",
    "src/obs/trace.hpp",
    "src/obs/trace.cpp",
    "src/obs/recorder.hpp",
    "src/obs/recorder.cpp",
}
HOT_ATOMIC_MARKER = "// vebo-lint: hot-path-atomics"
ATOMIC_OP_RE = re.compile(r"\.(?:load|store|fetch_add|fetch_sub|exchange)\s*\(")

KERNEL_NAMES = ("edge_map_pull_range", "edge_fold_ranges")
KERNEL_BANNED_RE = re.compile(
    r"\b(?:SpanScope|StageScope|record_stage|poll_cancellation)\b"
)

METRIC_PIN_FILE = "tests/test_obs.cpp"
METRIC_LITERAL_RE = re.compile(r'"(vebo_[a-z0-9_]+)"')
METRIC_TOKEN_RE = re.compile(r"\bvebo_[a-z0-9_]+\b")

# The one home of dense scheduling: the engine builds the ranges and
# edgemap.hpp's for_dense_ranges schedules them.
DENSE_SCHED_HOME = "src/framework/"
DENSE_SCHED_RE = re.compile(
    r"\b(?:partition_loop|dense_chunk_loop|dense_chunks)\s*\("
)

# The one home of bench output files: bench::Record and bench::write_file.
BENCH_RECORD_HOME = "bench/bench_common.hpp"
BENCH_RECORD_RE = re.compile(r"\bstd::(?:w|basic_)?o?fstream\b")

SUPPRESS_RE = re.compile(
    r"//\s*vebo-lint:\s*disable=([a-z-]+)\s*(?:--\s*(.*\S)?)?\s*$"
)
FIXTURE_HEADER_RE = re.compile(r"//\s*vebo-lint-fixture:\s*([a-z-]+|ok)")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _suppression_for(lines, idx):
    """Returns (rule, justification, decl_line) for a suppression covering
    line idx (same line or the line above), else None."""
    for j in (idx, idx - 1):
        if 0 <= j < len(lines):
            m = SUPPRESS_RE.search(lines[j])
            if m:
                return m.group(1), m.group(2), j + 1
    return None


def _apply_suppressions(lines, raw, findings):
    """Filters findings covered by a valid suppression; flags suppressions
    with a missing justification."""
    out = []
    bad_lines = set()
    for f in findings:
        sup = _suppression_for(lines, f.line - 1)
        if sup is None:
            out.append(f)
            continue
        rule, why, decl_line = sup
        if rule != f.rule:
            out.append(f)
            continue
        if not why:
            if decl_line not in bad_lines:
                bad_lines.add(decl_line)
                out.append(Finding(
                    "bad-suppression", f.path, decl_line,
                    "suppression without a justification "
                    "(write `-- <why this site is exempt>`)"))
        # Valid suppression: drop the finding.
    return out


# --- rules -----------------------------------------------------------------

def rule_clock_calls(rel, lines):
    if rel in CLOCK_ALLOWED_FILES:
        return []
    out = []
    for i, line in enumerate(lines, 1):
        if CLOCK_RE.search(line):
            out.append(Finding(
                "clock-calls", rel, i,
                "raw clock read outside the sanctioned telemetry sites; "
                "route through support/timer.hpp or obs detail::now_ns"))
    return out


def rule_raw_mutex(rel, lines):
    if rel == MUTEX_HOME:
        return []
    out = []
    for i, line in enumerate(lines, 1):
        if MUTEX_RE.search(line):
            out.append(Finding(
                "raw-mutex", rel, i,
                "raw std mutex/lock outside support/annotated_mutex.hpp; "
                "use vebo::Mutex / MutexLock so -Wthread-safety checks it"))
    return out


def rule_hot_atomics(rel, lines, raw):
    if rel not in HOT_ATOMIC_FILES and HOT_ATOMIC_MARKER not in raw:
        return []
    out = []
    for i, line in enumerate(lines, 1):
        for m in ATOMIC_OP_RE.finditer(line):
            # Scan the call's argument list (may continue onto the next
            # lines) for an explicit memory_order.
            depth, j, k, args = 1, i - 1, m.end(), []
            while depth > 0 and j < len(lines):
                text = lines[j]
                while k < len(text):
                    c = text[k]
                    if c == "(":
                        depth += 1
                    elif c == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    args.append(c)
                    k += 1
                j, k = j + 1, 0
            if "memory_order" not in "".join(args):
                out.append(Finding(
                    "hot-atomics", rel, i,
                    "default-seq_cst atomic op on an armed/fault hot path; "
                    "name the std::memory_order explicitly"))
    return out


def rule_kernel_purity(rel, lines):
    out = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        if any(f"void {k}(" in line or f" {k}(" in line and "(" in line
               for k in KERNEL_NAMES) and not line.lstrip().startswith("//"):
            # Find the opening brace of the function body, then walk the
            # brace-matched body.
            name = next(k for k in KERNEL_NAMES if k in line)
            if f"{name}(" not in line or ";" in line.split("//")[0]:
                i += 1
                continue  # declaration or call, not a definition header
            depth = 0
            entered = False
            j = i
            while j < n:
                for c in lines[j]:
                    if c == "{":
                        depth += 1
                        entered = True
                    elif c == "}":
                        depth -= 1
                if entered:
                    if KERNEL_BANNED_RE.search(lines[j]):
                        out.append(Finding(
                            "kernel-purity", rel, j + 1,
                            f"tracing/cancellation site inside the dense "
                            f"kernel {name}; these belong at superstep "
                            f"boundaries only"))
                    if depth == 0:
                        break
                j += 1
            i = j + 1
        else:
            i += 1
    return out


def rule_metric_names(rel, lines, pinned):
    out = []
    for i, line in enumerate(lines, 1):
        for m in METRIC_LITERAL_RE.finditer(line):
            if m.group(1) not in pinned:
                out.append(Finding(
                    "metric-names", rel, i,
                    f'metric name "{m.group(1)}" is not pinned by '
                    f"{METRIC_PIN_FILE} (MetricsPlane tests); add it there "
                    f"or do not emit it"))
    return out


def rule_dense_scheduling(rel, lines):
    if rel.startswith(DENSE_SCHED_HOME):
        return []
    out = []
    for i, line in enumerate(lines, 1):
        if DENSE_SCHED_RE.search(line.split("//")[0]):
            out.append(Finding(
                "dense-scheduling", rel, i,
                "dense scheduling outside src/framework/; run the loop "
                "through for_dense_ranges or edge_fold"))
    return out


def rule_bench_record(rel, lines):
    if rel == BENCH_RECORD_HOME:
        return []
    out = []
    for i, line in enumerate(lines, 1):
        if BENCH_RECORD_RE.search(line.split("//")[0]):
            out.append(Finding(
                "bench-record", rel, i,
                "file writer in bench/ outside bench/bench_common.hpp; "
                "write through bench::Record or bench::write_file"))
    return out


# --- driver ----------------------------------------------------------------

CXX_EXTS = (".hpp", ".cpp", ".h", ".cc", ".cxx", ".hh")


def load_pinned_names(root):
    pin = os.path.join(root, METRIC_PIN_FILE)
    try:
        with open(pin, encoding="utf-8") as f:
            return set(METRIC_TOKEN_RE.findall(f.read()))
    except OSError:
        return None


def lint_file(root, path, pinned, fixture_mode=False):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except (OSError, UnicodeDecodeError):
        return []
    lines = raw.splitlines()
    in_src = rel.startswith("src/") or fixture_mode
    findings = []
    if in_src:
        findings += rule_clock_calls(rel, lines)
        findings += rule_raw_mutex(rel, lines)
        findings += rule_metric_names(rel, lines, pinned)
        findings += rule_dense_scheduling(rel, lines)
    if rel.startswith("bench/") or fixture_mode:
        findings += rule_bench_record(rel, lines)
    findings += rule_hot_atomics(rel, lines, raw)
    findings += rule_kernel_purity(rel, lines)
    return _apply_suppressions(lines, raw, findings)


def iter_cxx_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
            continue
        for dirpath, _, names in os.walk(p):
            for name in sorted(names):
                if name.endswith(CXX_EXTS):
                    yield os.path.join(dirpath, name)


def self_test(root):
    """Runs the linter over tools/lint/fixtures/ and checks each fixture's
    declared expectation. Exits nonzero on any miss or misfire."""
    fixtures = os.path.join(root, "tools", "lint", "fixtures")
    pinned = load_pinned_names(root)
    failures = []
    checked = 0
    fired_rules = set()
    for path in sorted(iter_cxx_files([fixtures])):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            first = f.readline()
        m = FIXTURE_HEADER_RE.search(first)
        if not m:
            failures.append(f"{rel}: missing `// vebo-lint-fixture:` header")
            continue
        expect = m.group(1)
        checked += 1
        findings = lint_file(root, path, pinned, fixture_mode=True)
        rules_hit = {f.rule for f in findings}
        if expect == "ok":
            if findings:
                failures.append(
                    f"{rel}: expected clean, but fired: "
                    + "; ".join(str(f) for f in findings))
        else:
            fired_rules |= rules_hit
            if rules_hit != {expect}:
                failures.append(
                    f"{rel}: expected exactly [{expect}] to fire, got "
                    f"{sorted(rules_hit) or 'nothing'}")
    # Every rule (plus the bad-suppression meta-rule) must be exercised by
    # at least one known-bad fixture, or the self-test is not a self-test.
    for rule in RULE_IDS + ("bad-suppression",):
        if rule not in fired_rules:
            failures.append(f"no fixture exercises rule [{rule}]")
    if failures:
        print(f"vebo_lint --self-test: FAIL ({len(failures)} problem(s))")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"vebo_lint --self-test: OK ({checked} fixtures, "
          f"{len(RULE_IDS) + 1} rules exercised)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: src tests bench)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up from this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-test instead of linting")
    args = ap.parse_args()

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))

    if args.self_test:
        sys.exit(self_test(root))

    paths = [os.path.join(root, p) for p in (args.paths or
                                             ["src", "tests", "bench"])]
    pinned = load_pinned_names(root)
    if pinned is None:
        print(f"vebo_lint: cannot read {METRIC_PIN_FILE} (metric-names "
              f"rule has no pin set)", file=sys.stderr)
        sys.exit(2)
    findings = []
    count = 0
    for path in iter_cxx_files(paths):
        if os.path.join("tools", "lint", "fixtures") in path:
            continue
        count += 1
        findings += lint_file(root, path, pinned)
    for f in findings:
        print(f)
    if findings:
        print(f"vebo_lint: {len(findings)} finding(s) in {count} file(s)")
        sys.exit(1)
    print(f"vebo_lint: clean ({count} files)")
    sys.exit(0)


if __name__ == "__main__":
    main()
