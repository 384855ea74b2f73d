#!/usr/bin/env python3
"""Repo-specific lint rules for Contender.

Every rule lives in the RULES table below — one entry carries the rule's
name, its documentation, its check function, AND its --self-test fixtures
and expectations. The rule list printed by --help, the checks run by a
normal lint pass, and the coverage demanded by --self-test are all derived
from that single table, so a new rule cannot ship undocumented or
untested: --self-test fails outright if any rule lacks a seeded fixture
that makes it fire.

Usage:
  tools/lint.py [--root DIR]   lint the repository (non-zero exit on findings)
  tools/lint.py --self-test    seed violations into a temp tree and verify
                               every rule fires (non-zero exit on a miss)

Suppression: append `// contender-lint: disable=<rule>` to the offending
line. Suppressions are themselves budgeted: rule suppression-budget counts
every `disable=` comment, every `NO_THREAD_SAFETY_ANALYSIS`, and every
`// contender-lint: lock-free` marker against the SUPPRESSION_BUDGET
allowlist in this script — a new suppression without an allowlist entry
(and its one-line justification) fails lint.
"""

import argparse
import os
import re
import sys
import tempfile

NAKED_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:std::)?rand\s*\(\s*\)|std::random_device")
COUT_RE = re.compile(r"std::c(?:out|err)\b")
# Parameters only: a parameter ends in `,` or `)` (possibly after a
# default value). Struct fields end in `;` and are exempt — measurement
# buffers and simulator knobs legitimately hold raw doubles.
RAW_DIMENSION_RE = re.compile(
    r"\bdouble\s+\w*(?:latency|fraction)\w*\s*(?:=[^,);]*)?[,)]")
NAKED_SLEEP_RE = re.compile(
    r"\bsleep_(?:for|until)\s*\(|(?<![\w:])(?:u|nano)sleep\s*\(")
# A for/while header spelled over a retry/attempt counter is a retry loop;
# src/ has none (see the naked-sleep rule).
RETRY_LOOP_RE = re.compile(
    r"\b(?:for|while)\s*\([^)]*\b(?:retry|retries|attempts?)\b")
SUPPRESS_RE = re.compile(r"//\s*contender-lint:\s*disable=([\w,-]+)")
LINE_COMMENT_RE = re.compile(r"//.*$")
# The serving read-path files that must stay free of blocking locks; the
# sole exception is the writer seam, marked line-by-line.
READ_PATH_FILES = (
    os.path.join("src", "serve", "service.h"),
    os.path.join("src", "serve", "service.cc"),
    os.path.join("src", "serve", "snapshot_holder.h"),
    os.path.join("src", "serve", "snapshot_holder.cc"),
)
# Blocking-lock vocabulary: the std primitives AND the repo's annotated
# wrappers (util/mutex.h) — a wrapper lock serializes readers exactly as
# hard as a raw one.
BLOCKING_LOCK_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable|condition_variable_any)\b"
    r"|\b(?:Mutex|MutexLock|CondVar)\b")
# The raw std::mutex family only (rule raw-lock pass 1): these must not
# appear anywhere in src/ outside util/mutex.h — every lock goes through
# the annotated wrappers so Clang TSA can check it.
RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable|condition_variable_any)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")
WRITER_SEAM_RE = re.compile(r"//\s*contender-lint:\s*writer-seam")
LOCK_FREE_RE = re.compile(r"//\s*contender-lint:\s*lock-free")
NTSA_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")
# The one file allowed to touch the std primitives (it wraps them).
MUTEX_WRAPPER_FILE = os.path.join("src", "util", "mutex.h")
ANNOTATIONS_FILE = os.path.join("src", "util", "thread_annotations.h")

# Suppression budget (rule suppression-budget): every TSA/lint suppression
# in src/ must appear here with an exact expected count and a one-line
# justification. Adding a suppression without extending this table (and
# defending the entry in review) fails lint; a stale entry whose
# suppression disappeared fails too, so the table tracks reality.
# Kinds: a rule name (for `disable=<rule>` comments),
# "no-thread-safety-analysis" (NO_THREAD_SAFETY_ANALYSIS attributes), or
# "lock-free" (`// contender-lint: lock-free` guard-completeness markers).
SUPPRESSION_BUDGET = {
    os.path.join("src", "util", "thread_pool.cc"): {
        "no-thread-safety-analysis":
            (1, "WorkerLoop's Await predicate runs with mutex_ held; TSA "
                "cannot see through the template indirection"),
    },
    os.path.join("src", "util", "thread_pool.h"): {
        "lock-free":
            (1, "workers_ is written only by the constructor and joined "
                "after stopping_; workers never touch it"),
    },
    os.path.join("src", "util", "epoch.h"): {
        "lock-free":
            (1, "reader announcement slots are cache-padded atomics — the "
                "lock-free read side by design"),
    },
    os.path.join("src", "serve", "health.h"): {
        "lock-free":
            (1, "published_ is sized once and holds atomics written under "
                "mutex_, read lock-free by state()"),
    },
}


class Finding:
    def __init__(self, rule, path, line, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.text = text

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.text.strip()}"


def iter_source_files(root, subdirs, exts=(".h", ".cc", ".cpp")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def suppressed(line, rule):
    m = SUPPRESS_RE.search(line)
    return m is not None and rule in m.group(1).split(",")


def code_of(line):
    """The line with any trailing // comment stripped (string literals with
    '//' are rare enough in this codebase not to matter)."""
    return LINE_COMMENT_RE.sub("", line)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.readlines()


def check_naked_random(root):
    findings = []
    for path in iter_source_files(root, ("src", "tests", "bench", "examples")):
        rel = os.path.relpath(path, root)
        if rel.startswith(os.path.join("src", "util", "random")):
            continue
        for i, line in enumerate(read_lines(path), 1):
            if suppressed(line, "naked-random"):
                continue
            if NAKED_RANDOM_RE.search(code_of(line)):
                findings.append(Finding("naked-random", rel, i, line))
    return findings


def check_cout_in_src(root):
    findings = []
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        # util/logging IS the sanctioned sink; its implementation must
        # write somewhere real.
        if rel.startswith(os.path.join("src", "util", "logging")):
            continue
        for i, line in enumerate(read_lines(path), 1):
            if suppressed(line, "cout-in-src"):
                continue
            if COUT_RE.search(code_of(line)):
                findings.append(Finding("cout-in-src", rel, i, line))
    return findings


def check_raw_dimension(root):
    findings = []
    for path in iter_source_files(root, ("src",), exts=(".h",)):
        rel = os.path.relpath(path, root)
        for i, line in enumerate(read_lines(path), 1):
            if suppressed(line, "raw-dimension"):
                continue
            if RAW_DIMENSION_RE.search(code_of(line)):
                findings.append(Finding("raw-dimension", rel, i, line))
    return findings


def check_unregistered_tests(root):
    findings = []
    registered = set()
    for dirpath, _, names in os.walk(os.path.join(root, "tests")):
        for name in names:
            if name == "CMakeLists.txt":
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    registered.update(re.findall(r"[\w/]+_test\.cc", f.read()))
    for path in iter_source_files(root, ("tests",), exts=("_test.cc",)):
        rel = os.path.relpath(path, root)
        rel_in_tests = os.path.relpath(path, os.path.join(root, "tests"))
        if rel_in_tests not in registered and os.path.basename(path) not in (
            os.path.basename(r) for r in registered
        ):
            findings.append(
                Finding("unregistered-test", rel, 1,
                        "test file not registered in any tests/CMakeLists.txt")
            )
    return findings


SCENARIO_CLASS_RE = re.compile(
    r"class\s+(\w+)\s*(?:final\s*)?:\s*public\s+(?:scenario::)?Scenario\b")
SCENARIO_REGISTER_RE = re.compile(r"CONTENDER_REGISTER_SCENARIO\(\s*(\w+)\s*\)")


def check_scenario_registered(root):
    findings = []
    registered = set()
    for path in iter_source_files(root, (os.path.join("src", "scenario"),),
                                  exts=(".cc",)):
        for line in read_lines(path):
            registered.update(SCENARIO_REGISTER_RE.findall(code_of(line)))
    for path in iter_source_files(root, (os.path.join("src", "scenario"),)):
        rel = os.path.relpath(path, root)
        for i, line in enumerate(read_lines(path), 1):
            if suppressed(line, "scenario-registered"):
                continue
            m = SCENARIO_CLASS_RE.search(code_of(line))
            if m and m.group(1) not in registered:
                findings.append(
                    Finding("scenario-registered", rel, i,
                            f"scenario class {m.group(1)} has no "
                            "CONTENDER_REGISTER_SCENARIO entry"))
    return findings


def check_naked_sleep(root):
    findings = []
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        for i, line in enumerate(read_lines(path), 1):
            if suppressed(line, "naked-sleep"):
                continue
            code = code_of(line)
            if NAKED_SLEEP_RE.search(code) or RETRY_LOOP_RE.search(code):
                findings.append(Finding("naked-sleep", rel, i, line))
    return findings


def check_read_path_mutex(root):
    findings = []
    for rel in READ_PATH_FILES:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            continue
        for i, line in enumerate(read_lines(path), 1):
            # The writer-seam marker is the sanctioned opt-in; the
            # generic disable= suppression also works but the seam
            # marker is preferred (greppable as a single vocabulary).
            if WRITER_SEAM_RE.search(line):
                continue
            if suppressed(line, "read-path-mutex"):
                continue
            if BLOCKING_LOCK_RE.search(code_of(line)):
                findings.append(Finding("read-path-mutex", rel, i, line))
    return findings


# ---------------------------------------------------------------------------
# raw-lock pass 2: guard completeness.

_CLASS_HEAD_RE = re.compile(r"\b(?<!enum\s)(?:class|struct)\b[^;{}]*\{")
_ATTR_RE = re.compile(
    r"\b(?:GUARDED_BY|PT_GUARDED_BY|ACQUIRED_BEFORE|ACQUIRED_AFTER|alignas)"
    r"\s*\([^()]*\)")
_GUARD_ATTR_RE = re.compile(r"\b(?:GUARDED_BY|PT_GUARDED_BY)\s*\(")
_ACCESS_LABEL_RE = re.compile(r"\b(?:public|private|protected)\s*:")
_SKIP_FIRST_TOKENS = ("using", "typedef", "friend", "static", "enum",
                      "class", "struct", "template")
# Types that synchronize themselves: a field of one of these needs no
# GUARDED_BY (the wrappers/atomics/lock-free primitives carry their own
# contracts).
_SELF_SYNC_RE = re.compile(
    r"\b(?:std::atomic|ShardedCounter|CachePadded|EpochDomain|"
    r"Mutex|CondVar)\b")
_OWNS_MUTEX_RE = re.compile(r"\bMutex\s+\w+")
_TEMPLATE_ARGS_RE = re.compile(r"<[^<>]*>")


def _strip_comments_and_strings(lines):
    """Comment/string-stripped copies of `lines` (same line count)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            if ch == '"':
                j = i + 1
                while j < len(line) and line[j] != '"':
                    j += 2 if line[j] == "\\" else 1
                i = j + 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def _class_bodies(cleaned_lines):
    """Yields (immediate_chunks,) for every class/struct body, where
    immediate_chunks is a list of (line_no, char) covering only the body's
    own depth (nested braces elided to their delimiters)."""
    chars = []
    for line_no, line in enumerate(cleaned_lines, 1):
        for ch in line:
            chars.append((line_no, ch))
        chars.append((line_no, "\n"))
    text = "".join(ch for _, ch in chars)
    for m in _CLASS_HEAD_RE.finditer(text):
        open_idx = m.end() - 1
        depth = 0
        close_idx = None
        for j in range(open_idx, len(text)):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    close_idx = j
                    break
        if close_idx is None:
            continue
        depth = 0
        immediate = []
        for j in range(open_idx + 1, close_idx):
            ch = text[j]
            if ch == "{":
                depth += 1
                immediate.append((chars[j][0], "{"))
            elif ch == "}":
                depth -= 1
                immediate.append((chars[j][0], "}"))
            elif depth == 0:
                immediate.append((chars[j][0], ch))
        yield immediate


def _statements(immediate):
    """Splits a class body's immediate chunks into `;`-terminated
    statements, each a (first_line, last_line, text) tuple."""
    statements = []
    current = []
    for line_no, ch in immediate:
        current.append((line_no, ch))
        if ch == ";":
            text = "".join(c for _, c in current)
            statements.append((current[0][0], current[-1][0], text))
            current = []
    return statements


def _guard_completeness(rel, raw_lines, findings):
    """raw-lock pass 2: inside any class that owns a Mutex, every mutable
    field must be GUARDED_BY a capability, a self-synchronizing type, or
    explicitly marked `// contender-lint: lock-free`."""
    cleaned = _strip_comments_and_strings(raw_lines)
    for immediate in _class_bodies(cleaned):
        statements = _statements(immediate)
        if not any(_OWNS_MUTEX_RE.search(text) for _, _, text in statements):
            continue
        for first, last, text in statements:
            stmt = _ACCESS_LABEL_RE.sub(" ", text)
            stmt = " ".join(stmt.split())
            if not stmt or stmt in (";",):
                continue
            had_guard = _GUARD_ATTR_RE.search(stmt) is not None
            stmt_no_attrs = _ATTR_RE.sub(" ", stmt)
            first_token = stmt_no_attrs.split()[0] if stmt_no_attrs.split() \
                else ""
            first_token = first_token.split("<")[0]
            if first_token in _SKIP_FIRST_TOKENS:
                continue
            if "(" in stmt_no_attrs:
                continue  # function/constructor declaration
            if had_guard:
                continue
            if _SELF_SYNC_RE.search(stmt_no_attrs):
                continue
            lines_of_stmt = raw_lines[first - 1:last]
            if any(LOCK_FREE_RE.search(l) for l in lines_of_stmt):
                continue
            if any(suppressed(l, "raw-lock") for l in lines_of_stmt):
                continue
            no_templates = stmt_no_attrs
            while _TEMPLATE_ARGS_RE.search(no_templates):
                no_templates = _TEMPLATE_ARGS_RE.sub(" ", no_templates)
            if re.search(r"\bconst\b", no_templates):
                continue
            findings.append(Finding(
                "raw-lock", rel, first,
                f"mutable field in a Mutex-owning class lacks GUARDED_BY, "
                f"a self-synchronizing type, or a "
                f"`// contender-lint: lock-free` marker: {stmt}"))


def check_raw_lock(root):
    findings = []
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        if rel == MUTEX_WRAPPER_FILE:
            continue  # the wrapper itself is the sanctioned use
        raw_lines = read_lines(path)
        # Pass 1: no raw std::mutex-family vocabulary anywhere in src/.
        for i, line in enumerate(raw_lines, 1):
            if suppressed(line, "raw-lock"):
                continue
            if RAW_LOCK_RE.search(code_of(line)):
                findings.append(Finding("raw-lock", rel, i, line))
        # Pass 2: guard completeness (headers carry the declarations).
        if rel.endswith(".h") and rel != ANNOTATIONS_FILE:
            _guard_completeness(rel, raw_lines, findings)
    return findings


# A drop flag being raised: the outcome fields the schedulers/router use
# to mark work they refused (`rejected`/`shed`). Anything that raises one
# must stamp WHY within the surrounding lines, or the drop is silent.
SHED_FLAG_RE = re.compile(r"\b(?:rejected|shed)\s*=\s*true\b")
SHED_REASON_NEARBY_RE = re.compile(r"\bShedReason\b|\bshed_reason\b")


def check_shed_reason(root):
    """Every `rejected = true` / `shed = true` in src/ must mention
    ShedReason/shed_reason within +/-3 lines — no silent drops."""
    findings = []
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        lines = read_lines(path)
        for i, line in enumerate(lines, 1):
            if suppressed(line, "shed-reason"):
                continue
            if not SHED_FLAG_RE.search(code_of(line)):
                continue
            window = lines[max(0, i - 4):i + 3]
            if any(SHED_REASON_NEARBY_RE.search(w) for w in window):
                continue
            findings.append(Finding(
                "shed-reason", rel, i,
                "drop flag raised without a ShedReason stamp within 3 "
                "lines — every rejected/shed request must say why "
                f"(DESIGN.md §16): {line.strip()}"))
    return findings


def check_suppression_budget(root, budget=None):
    """Counts every suppression vocabulary occurrence in src/ against the
    allowlist: unbudgeted suppressions fail, and so do stale allowlist
    entries whose suppressions no longer exist."""
    if budget is None:
        budget = SUPPRESSION_BUDGET
    findings = []
    counts = {}  # (rel, kind) -> [count, first_line]
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        if rel == ANNOTATIONS_FILE:
            continue  # defines NO_THREAD_SAFETY_ANALYSIS
        for i, line in enumerate(read_lines(path), 1):
            for m in SUPPRESS_RE.finditer(line):
                for rule in m.group(1).split(","):
                    key = (rel, rule)
                    counts.setdefault(key, [0, i])[0] += 1
            if NTSA_RE.search(code_of(line)):
                key = (rel, "no-thread-safety-analysis")
                counts.setdefault(key, [0, i])[0] += 1
            if LOCK_FREE_RE.search(line):
                key = (rel, "lock-free")
                counts.setdefault(key, [0, i])[0] += 1
    for (rel, kind), (count, first_line) in sorted(counts.items()):
        allowed = budget.get(rel, {}).get(kind)
        if allowed is None:
            findings.append(Finding(
                "suppression-budget", rel, first_line,
                f"suppression `{kind}` (x{count}) has no SUPPRESSION_BUDGET "
                f"allowlist entry in tools/lint.py — add one with a "
                f"justification or remove the suppression"))
        elif count > allowed[0]:
            findings.append(Finding(
                "suppression-budget", rel, first_line,
                f"suppression `{kind}` appears {count}x, over its budget of "
                f"{allowed[0]} — extend the allowlist entry or remove the "
                f"new suppression"))
    for rel, kinds in sorted(budget.items()):
        for kind, (allowed, _) in sorted(kinds.items()):
            if allowed > 0 and (rel, kind) not in counts:
                if os.path.isfile(os.path.join(root, rel)) or \
                        not os.path.isdir(os.path.join(root, "src")):
                    findings.append(Finding(
                        "suppression-budget", rel, 1,
                        f"stale allowlist entry: no `{kind}` suppression "
                        f"remains in this file — delete the entry"))
    return findings


# ---------------------------------------------------------------------------
# The rule table: the single source of truth for documentation, checks,
# and self-test coverage. Each entry:
#   name        rule id (used in disable= suppressions)
#   doc         what the rule enforces and why
#   check       callable(root) -> [Finding]
#   fixtures    {relpath: content} seeded into the self-test tree
#   expect_fire paths the rule MUST report
#   expect_quiet paths the rule MUST NOT report
#   self_test_kwargs extra kwargs for the check under --self-test

class Rule:
    def __init__(self, name, doc, check, fixtures, expect_fire, expect_quiet,
                 self_test_kwargs=None):
        self.name = name
        self.doc = doc
        self.check = check
        self.fixtures = fixtures
        self.expect_fire = expect_fire
        self.expect_quiet = expect_quiet
        self.self_test_kwargs = self_test_kwargs or {}


RULES = (
    Rule(
        "naked-random",
        "No rand()/std::random_device outside src/util/random.*. All "
        "stochastic behavior must flow through util/random's seeded Rng so "
        "simulations stay reproducible.",
        check_naked_random,
        {
            "src/core/bad_random.cc":
                "int Roll() { return rand() % 6; }\n"
                "std::random_device rd;\n",
            # serve/ is the concurrent serving layer: wall-clock randomness
            # would break deterministic replay of ingest/refit sequences.
            "src/serve/bad_serve_random.cc":
                "std::random_device entropy;\n"
                "int Jitter() { return rand() % 3; }\n",
            # fleet/ routing and chaos drains must replay bit-exactly from
            # one root seed: every draw goes through the derived Rng
            # streams, never ambient entropy.
            "src/fleet/bad_fleet_random.cc":
                "std::random_device node_entropy;\n"
                "int PickVictim() { return rand() % 4; }\n",
            # Suppressions and comment-only mentions must NOT fire.
            "src/core/ok.cc":
                "// std::cout in a comment is fine\n"
                "int x = rand();  // contender-lint: disable=naked-random\n",
        },
        ["src/core/bad_random.cc", "src/serve/bad_serve_random.cc",
         "src/fleet/bad_fleet_random.cc"],
        ["src/core/ok.cc"],
    ),
    Rule(
        "cout-in-src",
        "No std::cout/std::cerr in src/ (library code must use util/logging "
        "or take an ostream&). bench/, examples/ and tests/ are CLIs and "
        "may print.",
        check_cout_in_src,
        {
            "src/core/bad_print.cc":
                '#include <iostream>\nvoid P() { std::cout << "x"; }\n',
        },
        ["src/core/bad_print.cc"],
        ["src/core/ok.cc"],
    ),
    Rule(
        "raw-dimension",
        "No raw `double` parameter whose name contains `latency` or "
        "`fraction` in a public header under src/. Those quantities have "
        "dedicated types in util/units.h.",
        check_raw_dimension,
        {
            "src/core/bad_units.h":
                "void Predict(double spoiler_latency, double io_fraction);\n",
            # sched/ headers sit at the policy/oracle seam where raw
            # doubles are most tempting (scores, slacks); the rule must
            # cover them too, including defaulted parameters.
            "src/sched/bad_sched.h":
                "void Admit(double predicted_latency = 0.0,\n"
                "           int slot);\n",
            "src/serve/bad_serve.h":
                "void Ingest(double observed_latency,\n"
                "            double drift_fraction = 0.0);\n",
            # fleet/ headers trade in predicted latencies constantly (router
            # scores, blame shares); raw doubles there would let node and
            # fleet clocks drift apart silently.
            "src/fleet/bad_fleet.h":
                "void Score(double predicted_latency,\n"
                "           double blame_fraction = 0.0);\n",
        },
        ["src/core/bad_units.h", "src/sched/bad_sched.h",
         "src/serve/bad_serve.h", "src/fleet/bad_fleet.h"],
        [],
    ),
    Rule(
        "unregistered-test",
        "Every tests/**/*_test.cc must be registered in a CMakeLists.txt, "
        "or it silently never runs.",
        check_unregistered_tests,
        {
            "tests/core/orphan_test.cc": "// never registered\n",
            "tests/CMakeLists.txt":
                "contender_test(other_test core/other_test.cc)\n",
            "tests/core/other_test.cc": "// registered\n",
        },
        ["tests/core/orphan_test.cc"],
        ["tests/core/other_test.cc"],
    ),
    Rule(
        "scenario-registered",
        "Every `class X : public Scenario` under src/scenario/ must have a "
        "CONTENDER_REGISTER_SCENARIO(X) entry in a src/scenario .cc, or "
        "the scenario silently never appears in the registry (benches, "
        "fleet_demo --scenario and the registry round-trip tests all "
        "enumerate through it).",
        check_scenario_registered,
        {
            "src/scenario/bad_scenario.h":
                "class GhostScenario : public Scenario {\n"
                " public:\n"
                "  const char* name() const override { return \"ghost\"; }\n"
                "};\n",
            "src/scenario/good_scenario.h":
                "class SteadyScenario final : public scenario::Scenario {\n"
                " public:\n"
                "  const char* name() const override "
                "{ return \"steady\"; }\n"
                "};\n",
            "src/scenario/good_scenario.cc":
                "CONTENDER_REGISTER_SCENARIO(SteadyScenario)\n",
            # A deliberately unregistered helper base stays quiet only via
            # an explicit suppression.
            "src/scenario/suppressed_scenario.h":
                "class TestOnlyScenario : public Scenario {"
                "  // contender-lint: disable=scenario-registered\n"
                "};\n",
        },
        ["src/scenario/bad_scenario.h"],
        ["src/scenario/good_scenario.h",
         "src/scenario/suppressed_scenario.h"],
    ),
    Rule(
        "naked-sleep",
        "No sleep_for/sleep_until/usleep/nanosleep and no retry loops (a "
        "for/while spelled over retry/attempt counters) anywhere in src/; "
        "no directory is exempt. Library results are pure functions of "
        "their inputs and seeds, so a failed step would fail the same way "
        "again: a retry only hides the fault, and a wall-clock wait makes "
        "an outcome depend on timing. Waits on shared state go through "
        "Mutex::Await. bench/ and tests/ drive wall-clock scenarios and "
        "are exempt.",
        check_naked_sleep,
        {
            "src/serve/bad_sleep.cc":
                "void Wait() {\n"
                "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                "}\n"
                "void Retry() {\n"
                "  for (int attempt = 0; attempt < 3; ++attempt) {}\n"
                "  while (retries < kMax) { ++retries; }\n"
                "  usleep(100);\n"
                "}\n",
            # util/ is not exempt: a clock that sleeps fires there too.
            "src/util/bad_clock.cc":
                "void SystemClock::Sleep() {\n"
                "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                "}\n",
            # Comments and names that merely mention sleeps stay quiet.
            "src/serve/good_wait.cc":
                "// Never sleep_for(...) or retry here.\n"
                "void Refit() {\n"
                "  for (int t = 0; t < num_templates; ++t) {}\n"
                "  const double sleep_budget = 0.0;\n"
                "}\n",
        },
        ["src/serve/bad_sleep.cc", "src/util/bad_clock.cc"],
        ["src/serve/good_wait.cc"],
    ),
    Rule(
        "read-path-mutex",
        "No blocking-lock vocabulary — the std::mutex family OR the "
        "annotated Mutex/MutexLock/CondVar wrappers — in the serving "
        "read-path files (src/serve/service.* and "
        "src/serve/snapshot_holder.*). The read path is lock-free by "
        "design (DESIGN.md §12): readers go epoch guard + atomic pointer "
        "load, and the ONLY sanctioned lock is the writer seam inside "
        "SnapshotHolder::Publish / shared(), whose lines carry the "
        "explicit `// contender-lint: writer-seam` marker. A new lock "
        "anywhere else reintroduces reader serialization.",
        check_read_path_mutex,
        {
            # A naked lock in service.cc fires — wrapper vocabulary too.
            "src/serve/service.cc":
                '#include "util/mutex.h"\n'
                "Mutex cache_mutex;\n"
                "void Predict() {\n"
                "  const MutexLock lock(&cache_mutex);\n"
                "}\n",
            # The marked writer seam (and lock vocabulary in comments)
            # stays exempt.
            "src/serve/snapshot_holder.cc":
                "// a std::mutex mentioned in a comment is fine\n"
                "Mutex writer_mutex_;  // contender-lint: writer-seam\n"
                "void Publish() {\n"
                "  const MutexLock lock(&writer_mutex_);"
                "  // contender-lint: writer-seam\n"
                "}\n",
        },
        ["src/serve/service.cc"],
        ["src/serve/snapshot_holder.cc"],
    ),
    Rule(
        "raw-lock",
        "Pass 1: no raw std::mutex/std::lock_guard/std::unique_lock/"
        "std::condition_variable (or any std blocking-lock vocabulary, "
        "including their #includes) anywhere in src/ outside "
        "src/util/mutex.h — every lock goes through the annotated "
        "Mutex/MutexLock/CondVar wrappers so Clang Thread Safety Analysis "
        "(-Wthread-safety, the clang-tsa CI job) can prove guard coverage "
        "and lock ordering. Pass 2 (guard completeness): inside any class "
        "that owns a Mutex, every mutable field must carry GUARDED_BY/"
        "PT_GUARDED_BY, be a self-synchronizing type (std::atomic, "
        "ShardedCounter, CachePadded, EpochDomain, Mutex, CondVar), be "
        "const, or carry an explicit `// contender-lint: "
        "lock-free` marker (budgeted by suppression-budget).",
        check_raw_lock,
        {
            "src/core/bad_lock.cc":
                "#include <mutex>\n"
                "std::mutex m;\n"
                "void F() { std::lock_guard<std::mutex> lock(m); }\n",
            # The wrapper itself is the one sanctioned user of the raw
            # primitives.
            "src/util/mutex.h":
                "#include <mutex>\n"
                "class Mutex { std::mutex mu_; };\n",
            # Guard completeness: an unguarded mutable field in a
            # Mutex-owning class fires ...
            "src/core/bad_guard.h":
                "class Leaky {\n"
                " private:\n"
                "  Mutex mutex_;\n"
                "  int unguarded_count_ = 0;\n"
                "};\n",
            # ... while all three sanctioned outcomes stay quiet:
            # GUARDED_BY, a self-synchronizing (atomic) type, and the
            # explicit lock-free marker — plus const immutables.
            "src/core/good_guard.h":
                "class Disciplined {\n"
                " private:\n"
                "  mutable Mutex mutex_;\n"
                "  long guarded_value_ GUARDED_BY(mutex_) = 0;\n"
                "  std::atomic<int> atomic_value_{0};\n"
                "  std::vector<int> frozen_after_ctor_;"
                "  // contender-lint: lock-free\n"
                "  const int immutable_ = 2;\n"
                "  void Tick() REQUIRES(mutex_);\n"
                "};\n",
            # fleet/ nodes share nothing mutable by design (the execution
            # pass is embarrassingly parallel); a raw lock or an unguarded
            # Mutex-owning registry there is exactly the drift this rule
            # exists to stop.
            "src/fleet/bad_fleet_lock.h":
                "#include <mutex>\n"
                "class NodeRegistry {\n"
                " private:\n"
                "  Mutex mutex_;\n"
                "  int outstanding_ = 0;\n"
                "};\n",
            "src/fleet/good_fleet_lock.h":
                "class NodeStats {\n"
                " private:\n"
                "  mutable Mutex mutex_;\n"
                "  int routed_ GUARDED_BY(mutex_) = 0;\n"
                "  const int node_id_ = 0;\n"
                "};\n",
        },
        ["src/core/bad_lock.cc", "src/core/bad_guard.h",
         "src/fleet/bad_fleet_lock.h"],
        ["src/util/mutex.h", "src/core/good_guard.h",
         "src/fleet/good_fleet_lock.h"],
    ),
    Rule(
        "shed-reason",
        "No silent drops: every `rejected = true` / `shed = true` in src/ "
        "must mention ShedReason/shed_reason within 3 lines, so every "
        "refused request carries a machine-readable reason the FleetMetrics "
        "conservation ledger can account for (DESIGN.md §16). A drop "
        "without a reason is invisible to the per-tenant shed breakdown "
        "and to the overload bench's shed-by-reason columns.",
        check_shed_reason,
        {
            # A raised drop flag with no reason in sight fires ...
            "src/fleet/bad_shed.cc":
                "void Drop(FleetQueryOutcome* out) {\n"
                "  out->rejected = true;\n"
                "}\n"
                "void LongDrop(Outcome* out) {\n"
                "  out->shed = true;\n"
                "  out->a = 1;\n"
                "  out->b = 2;\n"
                "  out->c = 3;\n"
                "  out->shed_reason = overload::ShedReason::kQuota;"
                "  // too far: 4 lines away\n"
                "}\n",
            # ... while a stamped drop (the router/simulator idiom) and an
            # explicitly suppressed one stay quiet.
            "src/fleet/good_shed.cc":
                "void Drop(FleetQueryOutcome* out) {\n"
                "  out->rejected = true;\n"
                "  out->shed_reason = overload::ShedReason::kQuota;\n"
                "}\n",
            "src/sched/good_shed.cc":
                "void Shed(Outcome* out, overload::ShedReason reason) {\n"
                "  out->shed_reason = reason;\n"
                "  out->shed = true;\n"
                "}\n"
                "void Legacy(Outcome* out) {\n"
                "  out->rejected = true;"
                "  // contender-lint: disable=shed-reason\n"
                "}\n",
        },
        ["src/fleet/bad_shed.cc"],
        ["src/fleet/good_shed.cc", "src/sched/good_shed.cc"],
    ),
    Rule(
        "suppression-budget",
        "Every suppression in src/ — `// contender-lint: disable=<rule>`, "
        "`NO_THREAD_SAFETY_ANALYSIS`, and `// contender-lint: lock-free` "
        "markers — is counted against the SUPPRESSION_BUDGET allowlist at "
        "the top of this script. A new suppression without an allowlist "
        "entry (with its one-line justification) fails lint; so does a "
        "stale entry whose suppression no longer exists.",
        check_suppression_budget,
        {
            # An unbudgeted disable= and an unbudgeted
            # NO_THREAD_SAFETY_ANALYSIS both fire ...
            "src/core/bad_suppress.cc":
                "int y = 0;  // contender-lint: disable=cout-in-src\n",
            "src/core/bad_ntsa.cc":
                "void Sneaky() NO_THREAD_SAFETY_ANALYSIS {}\n",
            # ... while budgeted ones (see self_test_kwargs) stay quiet.
            "src/core/ok_ntsa.cc":
                "void Budgeted() NO_THREAD_SAFETY_ANALYSIS {}\n",
        },
        ["src/core/bad_suppress.cc", "src/core/bad_ntsa.cc"],
        ["src/core/ok.cc", "src/core/ok_ntsa.cc", "src/core/good_guard.h"],
        self_test_kwargs={"budget": {
            os.path.join("src", "core", "ok.cc"):
                {"naked-random": (1, "self-test fixture")},
            os.path.join("src", "sched", "good_shed.cc"):
                {"shed-reason": (1, "self-test fixture")},
            os.path.join("src", "core", "ok_ntsa.cc"):
                {"no-thread-safety-analysis": (1, "self-test fixture")},
            os.path.join("src", "core", "good_guard.h"):
                {"lock-free": (1, "self-test fixture")},
        }},
    ),
)


def lint(root):
    findings = []
    for rule in RULES:
        findings.extend(rule.check(root))
    return findings


def self_test():
    """Seeds each rule's fixtures into a scratch tree and verifies the rule
    fires exactly where its table entry says — failing outright if any rule
    has no fixture or no expected firing path (coverage cannot silently
    lapse when a rule is added)."""
    failures = []
    for rule in RULES:
        if not rule.fixtures or not rule.expect_fire:
            failures.append(
                f"rule {rule.name} has no self-test fixture/expectation in "
                f"the RULES table — every rule must seed a violation")
    with tempfile.TemporaryDirectory(prefix="contender-lint-") as root:
        # One shared tree: fixtures may interact (e.g. suppression-budget
        # sees every other rule's suppressions), which mirrors reality.
        for rule in RULES:
            for rel, text in rule.fixtures.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
        for rule in RULES:
            findings = rule.check(root, **rule.self_test_kwargs)
            fired_paths = {f.path.replace(os.sep, "/") for f in findings}
            wrong_rule = [f for f in findings if f.rule != rule.name]
            if wrong_rule:
                failures.append(
                    f"check for {rule.name} reported a different rule id: "
                    f"{wrong_rule[0]}")
            for rel in rule.expect_fire:
                if rel not in fired_paths:
                    failures.append(
                        f"rule {rule.name} did not fire on seeded {rel}")
            for rel in rule.expect_quiet:
                if rel in fired_paths:
                    hit = next(f for f in findings
                               if f.path.replace(os.sep, "/") == rel)
                    failures.append(
                        f"rule {rule.name} false positive on {rel}: {hit}")
    if failures:
        for msg in failures:
            print(f"lint --self-test FAILED: {msg}", file=sys.stderr)
        return 1
    print(f"lint --self-test passed: all {len(RULES)} rules fire and "
          "suppressions hold")
    return 0


def rules_epilog():
    lines = ["rules:"]
    for rule in RULES:
        lines.append(f"  {rule.name}")
        doc = rule.doc
        while doc:
            lines.append(f"      {doc[:68].strip()}")
            doc = doc[68:]
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, epilog=rules_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
