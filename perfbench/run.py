#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload at
one seed and prints the result line.

    python3 perfbench/run.py --workload sched-backlog --seed 42 \
        --seconds 20 --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
root; the first run configures and builds, later runs only re-link what
changed. Build output goes to stderr. Stdout carries the binary's report
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list; a per-layer metric the
workload does not measure reads 0 (perfbench/layer_map.json says which
workload measures which).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={seconds}",
               f"--trace={args.trace}", f"--commit={source_id()}"]
    if args.trace:
        command.append(
            f"--trace_out={build_dir / f'spans-{args.workload}-{args.seed}.jsonl'}")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {metric['name']} was not measured")
            got = {"value": 0, "unit": metric["unit"]}
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {got['unit']} != {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
