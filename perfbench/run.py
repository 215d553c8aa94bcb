#!/usr/bin/env python3
"""Runs one XKSearch benchmark workload and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_hot --seed 7 --seconds 10 --trace 0

The first call builds perfbench/ (and the repository's src/ libraries it
links) into .bench_build/ with CMake. Each run starts one child process,
xk_perfbench, which generates the seeded inputs, sets the system up,
checks its answers and measures. This script turns the child's JSON line
into the benchmark result: the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json for --trace 0 and every
per_layer metric for --trace 1. A full record of the run (all measured
numbers, sample counts and run context) is printed on the line before it
and written under .bench_build/records/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("paper_hot", "paper_cold", "serve_zipf", "ingest")
# A run must end within 180 s; the child gets 170 of them.
CHILD_TIMEOUT_S = 170
# End-to-end numbers printed by every run beside the gated ones; the last
# three exist on ingest only.
REPORTED_E2E = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_us", "us"),
    ("latency_p99_us", "us"), ("fail_ratio", "ratio"), ("peak_rss_mb", "MB"),
    ("index_bytes_per_posting", "B"), ("postings_per_s", "1/s"),
    ("freshness_p50_ms", "ms"), ("freshness_p95_ms", "ms"),
)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the checkout's build directory when set.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds xk_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(out), "--target", "xk_perfbench",
              "-j", jobs]]
    if not (out / "CMakeCache.txt").exists():
        log(f"configuring and building in {out}")
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out / "xk_perfbench"


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def run_child(binary, args, workdir, trace_out):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    records = build_dir() / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    workdir = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    child = run_child(binary, args, workdir, records / f"{stem}.spans.jsonl")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = child["layers"] if args.trace else child["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    attempted = int(child["attempted"])
    failed = int(child["failed"])
    correct = attempted >= 1 and failed == 0 and not missing

    context = dict(child["context"])
    context.update({"git_sha": git_sha(), "source_digest": source_digest()})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "missing_metrics": missing,
        "end_to_end": {name: {"value": child["e2e"][name], "unit": unit}
                       for name, unit in REPORTED_E2E if name in child["e2e"]},
        "traced_end_to_end": child["traced_e2e"],
        "per_layer": child["layers"], "samples": child["samples"],
        "series": child["series"],
        "context": context, "attempted": attempted, "failed": failed,
    }
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        log(f"failed: {exc}")
        sys.exit(1)
