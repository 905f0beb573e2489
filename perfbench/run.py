#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
program from ../src) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in its own process, checks that
the result carries every metric BENCHMARK.json names for this mode
(end_to_end untraced, per_layer traced) with the declared unit, and prints
the binary's notes followed by the result as the last line of stdout.
Everything it writes stays inside the checkout; build logs go to stderr.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def cached_source_dir(build):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def build():
    build = build_dir()
    # A build tree configured for another checkout cannot be reused.
    cached = cached_source_dir(build)
    if cached is not None and pathlib.Path(cached) != HERE:
        shutil.rmtree(build)
    build.mkdir(parents=True, exist_ok=True)
    tmp = build / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if cached_source_dir(build) is None:
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "perfbench",
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"{args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
