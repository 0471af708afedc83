#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--held-out-seed N]

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library straight from src/) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; later runs only
rebuild what changed.  The last line of standard output is the result
object; everything the build prints goes to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("table1-gen", "list1-sweep", "matrix-open")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Digest of every file the binary is built from: counters recorded by
    one build are only compared with later runs of the same build."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, **quiet).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(build_dir), "-j", jobs,
               "--target", "perfbench"]
    if subprocess.run(command, **quiet).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", type=int,
                        help="the seed kept out of tuning (recorded only)")
    args = parser.parse_args()

    if not (ROOT / "src" / "sim" / "coverage.hpp").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    if args.held_out_seed is not None and args.seed == args.held_out_seed:
        print(f"perfbench: running on the held-out seed {args.seed}",
              file=sys.stderr)

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    build_dir = target.resolve() / "perfbench"
    binary = build(build_dir)
    out_dir = build_dir / "runs"
    counters = out_dir / "counters" / source_digest()
    counters.mkdir(parents=True, exist_ok=True)
    counters_file = counters / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"-s{args.seconds:g}.txt")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir),
               "--counters", str(counters_file)]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with code {run.returncode}")
    result = json.loads(lines[-1])
    missing = set(expected_metrics(args.trace)) - set(result["metrics"])
    if missing:
        fail(f"metrics missing from the result: {sorted(missing)}")
    print(f"run: {args.workload} seed {args.seed}, "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
