#!/usr/bin/env python3
"""Seed-42 golden-output gate for the bench and example binaries.

Each gated case runs its binary at --seed=42 in a fresh temporary
directory; a case may add arguments (whatif_cli_list runs whatif_cli
--list). Its stdout and every BENCH_*.json it writes there are compared
exactly with tests/golden/<case>/ (stdout.txt plus the JSON files,
re-indented one value per line so that a diff names the value that
moved). Two benches
print wall-clock numbers: bench_serve (client QPS and latency) and
bench_parallel_train (collect/train seconds). Their timing lines and
fields are masked before the comparison; everything else they print is
gated too.

  python3 tools/golden.py --build-dir build             # check every binary
  python3 tools/golden.py --build-dir build bench_fleet # check one
  python3 tools/golden.py --build-dir build --update    # rewrite the files
  python3 tools/golden.py --list                        # gated case names

A check exits 1 on any difference, on a missing or extra JSON file, or
when the binary itself fails (the system benches CHECK their own claims).
An intended output change is an --update whose diff is reviewed with the
change. ctest runs one `golden_<case>` test per entry (label `golden`).

Not gated: bench_fig3_ml_new_templates (about 80 s at seed 42, nearly all
of it in the eigen solver) and bench_micro (wall-clock only).
"""

import argparse
import difflib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# (binary, directory under the build tree), in the order they run.
CASES = [
    ("bench_sec3_static_ml", "bench"),
    ("bench_table2_cqi_variants", "bench"),
    ("bench_fig4_qs_coefficients", "bench"),
    ("bench_table3_feature_correlation", "bench"),
    ("bench_fig6_spoiler_growth", "bench"),
    ("bench_fig7_cqi_known", "bench"),
    ("bench_fig8_qs_accuracy", "bench"),
    ("bench_fig9_spoiler_prediction", "bench"),
    ("bench_fig10_new_templates", "bench"),
    ("bench_sampling_cost", "bench"),
    ("bench_parallel_train", "bench"),
    ("bench_scheduler", "bench"),
    ("bench_serve", "bench"),
    ("bench_fleet", "bench"),
    ("bench_overload", "bench"),
    ("bench_scenarios", "bench"),
    ("quickstart", "examples"),
    ("batch_scheduler", "examples"),
    ("capacity_planner", "examples"),
    ("whatif_cli", "examples"),
    ("serve_demo", "examples"),
    ("fleet_demo", "examples"),
    ("whatif_cli_list", "examples"),
]

# Cases that run another binary or add arguments after --seed=42:
# case -> (binary, arguments).
VARIANTS = {
    "whatif_cli_list": ("whatif_cli", ["--list"]),
}

MASK = "<timing>"
# A figure not glued to a preceding word or number ("p99" stays whole).
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def cells(first_masked):
    """Masks the figures of a table line from column `first_masked` on.

    Column widths follow the widest figure, so the line is re-joined with
    two spaces between cells, the separator the table printer pads to.
    """
    def mask(line):
        row = re.split(r"\s{2,}", line.strip())
        row[first_masked:] = [NUMBER.sub(MASK, c) for c in row[first_masked:]]
        return "  ".join(row) + "\n"
    return mask


def figures_before(unit):
    def mask(line):
        return re.sub(NUMBER.pattern + r"(?=" + unit + r")", MASK, line)
    return mask


# Per binary: (line regex, action) pairs; the first match decides. An
# action returns the masked line; no action drops a line whose content
# depends on the host (or a table rule whose width follows the figures).
STDOUT_MASKS = {
    "bench_serve": [
        (r"^-+$", None),
        (r"^\s+Clients\s", cells(0)),
        (r"^\s+\d+\s{2,}", cells(1)),  # keep the client count
        (r"^(Multi-thread best|Single hardware thread)", None),
        (r"^Refit under traffic:", figures_before(" us")),
    ],
    "bench_parallel_train": [
        (r"^-+$", None),
        (r"^\s+Scenario\s", cells(0)),
        (r"^\s+pool=", cells(1)),  # keep the scenario name
    ],
}

# Per JSON file: keys whose value is wall-clock or host-dependent.
JSON_MASKS = {
    "BENCH_serve.json": {"qps", "p50_us", "p99_us", "worst_p99_us",
                         "baseline_p99_us", "during_refit_p99_us",
                         "hardware_threads"},
}


def mask_stdout(name, text):
    rules = STDOUT_MASKS.get(name, [])
    out = []
    for line in text.splitlines(keepends=True):
        for pattern, action in rules:
            if re.search(pattern, line):
                line = action(line) if action else None
                break
        if line is not None:
            out.append(line)
    return "".join(out)


def mask_json(filename, text):
    """Re-indents a BENCH JSON file one value per line, masking timings.

    Python reads each number back to the double it denotes and prints the
    shortest text that round-trips, so two files compare equal exactly
    when their values do.
    """
    masked = JSON_MASKS.get(filename, set())

    def walk(value):
        if isinstance(value, dict):
            return {k: MASK if k in masked else walk(v)
                    for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return json.dumps(walk(json.loads(text)), indent=1) + "\n"


def run_case(build_dir, name, subdir):
    """Runs one case; returns ({file name: masked text}, error or None)."""
    program, args = VARIANTS.get(name, (name, []))
    binary = (build_dir / subdir / program).resolve()
    if not binary.is_file():
        return {}, f"{binary} not found (build it first)"
    with tempfile.TemporaryDirectory(prefix=f"golden_{name}_") as tmp:
        proc = subprocess.run([str(binary), "--seed=42", *args], cwd=tmp,
                              capture_output=True, encoding="utf-8")
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-20:])
            return {}, f"{name} exited {proc.returncode}:\n{tail}"
        files = {"stdout.txt": mask_stdout(name, proc.stdout)}
        for path in sorted(Path(tmp).glob("BENCH_*.json")):
            files[path.name] = mask_json(path.name,
                                         path.read_text(encoding="utf-8"))
    return files, None


def check(name, files):
    """Diffs `files` against the committed ones; returns True if equal."""
    golden = GOLDEN_DIR / name
    committed = {p.name for p in golden.glob("*")}
    ok = True
    for missing in sorted(committed - files.keys()):
        print(f"golden: {name} no longer writes {missing}")
        ok = False
    for filename, text in files.items():
        path = golden / filename
        if not path.is_file():
            print(f"golden: {name} writes {filename}, which has no golden "
                  f"file (run with --update)")
            ok = False
            continue
        want = path.read_text(encoding="utf-8")
        if want == text:
            continue
        ok = False
        diff = list(difflib.unified_diff(
            want.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile=str(path.relative_to(ROOT)),
            tofile=f"{name} (this build)"))
        sys.stdout.writelines(diff[:60])
        if len(diff) > 60:
            print(f"... {len(diff) - 60} more diff lines")
        if diff and not diff[-1].endswith("\n"):
            print()
    return ok


def update(name, files):
    golden = GOLDEN_DIR / name
    golden.mkdir(parents=True, exist_ok=True)
    for stale in golden.glob("*"):
        if stale.name not in files:
            stale.unlink()
    for filename, text in files.items():
        (golden / filename).write_text(text, encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=ROOT / "build")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden files from this build")
    parser.add_argument("--list", action="store_true",
                        help="print the gated case names and exit")
    parser.add_argument("names", nargs="*",
                        help="cases to run (default: all)")
    args = parser.parse_args()

    if args.list:
        print(";".join(name for name, _ in CASES))
        return 0
    known = dict(CASES)
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"not gated: {', '.join(unknown)}")
    failed = []
    for name in args.names or [name for name, _ in CASES]:
        files, error = run_case(args.build_dir, name, known[name])
        if error is not None:
            print(f"golden: {error}")
            failed.append(name)
        elif args.update:
            update(name, files)
        elif not check(name, files):
            failed.append(name)
    if failed:
        print(f"golden: {len(failed)} failed: {' '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
