#!/usr/bin/env python3
"""Build the OSCAR benchmark binary (oscar_bench) and run one workload.

Run from anywhere; paths resolve against the repository root:

    python3 benchmark/run.py --workload p2_fista --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --smoke

oscar_bench is built (CMake, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, and run with the repository root as
its working directory and no OSCAR_* variables in its environment. Its
last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. Each run also writes a full record, and in traced mode a
Chrome trace, to <build>/results (or --results DIR); compare.py reads
those records.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 175


def workload_names():
    """The workloads BENCHMARK.json names; oscar_bench rejects others."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target).resolve()


def build(target):
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the OSCAR sources are missing next to benchmark/")
    cmake_dir = target / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    with open(target / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (cmake_dir / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", str(cmake_dir), "-j4", "--target",
             "oscar_bench"],
            stdout=sys.stderr, check=True)
    return cmake_dir / "oscar_bench"


def revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run(binary, argv):
    """Run oscar_bench; returns (exit code, last stdout line)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSCAR_")}
    proc = subprocess.Popen([str(binary)] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            last = line.strip() or last
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode < 0:
        print(f"run.py: oscar_bench killed (signal {-proc.returncode})",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, last


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one request per workload, all workloads")
    parser.add_argument("--rev", default=None,
                        help="revision to stamp (default: git HEAD)")
    parser.add_argument("--results", default=None,
                        help="directory for run records and traces")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    target = build_root()
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    results = Path(args.results).resolve() if args.results else \
        target / "results"
    common = ["--seed", str(args.seed), "--rev", args.rev or revision(),
              "--out-dir", os.path.relpath(results, ROOT)]

    if not args.smoke:
        code, _ = run(binary, ["--workload", args.workload,
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)] + common)
        return code

    ok = True
    for workload in workload_names():
        code, last = run(binary, ["--workload", workload, "--smoke"] + common)
        good = code == 0 and '"correct": true' in last
        print(f"smoke {workload}: {'ok' if good else 'FAILED'}", flush=True)
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
