#!/usr/bin/env python3
"""Repository benchmark: build the measuring program from source and run
one workload.

    python3 perfbench/run.py --workload serve_vq4|fleet_prefix_int4|kernel_suite
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (the library under src/ plus the measuring program in perfbench/src/) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs only rebuild
what changed.  Build output goes to stderr.  The last line of stdout is
the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also leaves its spans in
<build dir>/spans_<workload>.json.  The exit code is 0 only when the
build succeeded, every correctness gate passed and the printed metrics
match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve_vq4", "fleet_prefix_int4", "kernel_suite")
# Each run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return args


def build() -> Path:
    """Configure once, then (re)build; return the measuring program."""
    if not (ROOT / "src" / "compiler" / "engine.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = []
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *gen])
    cmds.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in cmds:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    binary = build_dir / "vqllm_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    args = parse_args()
    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(binary.parent / f"spans_{args.workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited {done.returncode}")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    want = expected_metrics(args.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"printed metrics {sorted(got.items())} differ from "
             f"BENCHMARK.json {sorted(want.items())}")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
