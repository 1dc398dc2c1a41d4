#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (the tspu_perfbench binary and
the library sources it links) and runs one workload.

    python3 perfbench/run.py --workload national_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/perfbench.
Every line printed on stdout is one JSON object: provenance, input size,
run detail, and last the result {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. The exit code is 0 only for a correct run.
See perfbench/NOTES.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "tspu_perfbench"
WORKLOADS = ("national_scan", "sni_sweep", "faulted_scan")
# A run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build chatter goes to stderr."""
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not (ROOT / required).is_file():
            raise RuntimeError(f"missing {required}: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "tspu_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def source_provenance():
    """Git revision when the checkout is a repository, and a digest of the
    library and benchmark sources, which identifies the build either way."""
    rev = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_rev": rev, "source_sha256": digest.hexdigest()[:16]}


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, parsed JSON lines)."""
    spans = ROOT / ".bench_build" / "spans" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return proc.returncode, lines


def run_once(args):
    build()
    extra = []
    if args.jobs:
        extra += ["--jobs", str(args.jobs)]
    if args.tiny:
        extra += ["--tiny"]
    if args.invert_truth:
        extra += ["--invert-truth"]
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace, extra)
    if not lines or "correct" not in lines[-1]:
        raise RuntimeError(f"tspu_perfbench exited {code} without a result")
    for line in lines:
        if "provenance" in line:
            line["provenance"].update(source_provenance())
        print(json.dumps(line), flush=True)
    return code


def self_test():
    """Runs every workload at tiny scale: each metric of BENCHMARK.json must
    be printed with its unit, and inverted ground truth must trip the gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from the benchmark's")
    build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            code, lines = run_binary(workload, 1, 1, trace, ["--tiny"])
            result = lines[-1] if lines else {}
            if code != 0 or not result.get("correct"):
                problems.append(f"{tag}: not correct (exit {code})")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} != {expected[trace]}")
            if not any("provenance" in line for line in lines):
                problems.append(f"{tag}: no provenance")
            code, lines = run_binary(workload, 1, 1, trace, ["--tiny", "--invert-truth"])
            result = lines[-1] if lines else {}
            if code == 0 or result.get("correct") or not result.get("failed"):
                problems.append(f"{tag}: inverted ground truth passed the gate")
            log(f"self-test {tag}: checked")
    for p in problems:
        log(f"self-test FAILED: {p}")
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="override the workload's worker count")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny worlds, for smoke runs")
    parser.add_argument("--invert-truth", action="store_true",
                        help="check against inverted ground truth (must fail)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        return run_once(args)
    except (RuntimeError, AssertionError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
