#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one build agree?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed 1000]
                                [--traced 2] [--seconds S]

Runs the benchmark command from BENCHMARK.json twice over (set A, then set
B), each set being --runs untraced runs per workload with seeds seed+1 ..
seed+runs. For every workload and end-to-end metric it prints each set's
median and quartiles and checks, with the bounds from BENCHMARK.json:

  spread  (Q3 - Q1) / median of each set is within the bound (setup_s is
          exempt), and under a third of it for a comfortable margin;
  agree   set B's median is not worse than set A's by more than the bound.

It then makes --traced traced runs per workload in each set, on the same
seeds in both, and checks that the exact counts repeat exactly and that the
counts expected to be zero are zero. Exits 1 if any check fails. Each run's
output is kept in .bench_out/steady/.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LOG_DIR = ROOT / ".bench_out" / "steady"

# Per-layer counts that depend only on the seed and the program.
EXACT = ("graph.nodes_after_opt", "graph.fused", "core.eager_ops_per_call",
         "exec.nodes_per_call", "exec.kernels_per_call",
         "exec.while_iters_per_call", "artifact.load_allocs",
         "artifact.plans_compiled")
ZERO = ("artifact.plans_compiled", "serve.failed", "serve.rejected_full",
        "serve.expired")


def run(workload, seed, seconds, trace, tag):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    (LOG_DIR / f"{tag}-{workload}-{seed}-t{trace}.txt").write_text(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"steady: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = [args.seed + i + 1 for i in range(args.runs)]
    LOG_DIR.mkdir(parents=True, exist_ok=True)

    sets = {}
    for tag in ("A", "B"):
        sets[tag] = {w: [run(w, s, args.seconds, 0, tag) for s in seeds]
                     for w in workloads}
    ok = True
    print(f"{'workload':12} {'metric':16} {'set':3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for tag in ("A", "B"):
            for r in sets[tag][w]:
                if not r["correct"] or r["failed"]:
                    print(f"{w}: set {tag} run not correct: attempted="
                          f"{r['attempted']} failed={r['failed']}")
                    ok = False
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = {}
            for tag in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[tag][w]]
                q1, med, q3 = quartiles(values)
                medians[tag] = med
                spread = (q3 - q1) / med if med else 0.0
                if name == "setup_s":
                    verdict = "exempt"
                elif spread > bound:
                    verdict, ok = "FAIL", False
                elif spread > bound / 3:
                    verdict = "ok (over a third of bound)"
                else:
                    verdict = "ok"
                print(f"{w:12} {name:16} {tag:3} {q1:11.5g} {med:11.5g} "
                      f"{q3:11.5g} {spread:7.3f} {bound:6.3f}  {verdict}")
            a, b = medians["A"], medians["B"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{w:12} {name:16} B vs A: {100 * worse:+.1f}% worse "
                  f"(bound {100 * bound:.0f}%)  {verdict}")

    for w in workloads:
        for seed in seeds[:args.traced]:
            a = run(w, seed, args.seconds, 1, "A")["metrics"]
            b = run(w, seed, args.seconds, 1, "B")["metrics"]
            for name in EXACT:
                same = a[name]["value"] == b[name]["value"]
                ok = ok and same
                print(f"{w:12} seed {seed} {name:28} {a[name]['value']:g} "
                      f"{b[name]['value']:g}  {'exact' if same else 'DIFFERS'}")
            for name in ZERO:
                for tag, r in (("A", a), ("B", b)):
                    if r[name]["value"] != 0:
                        ok = False
                        print(f"{w:12} seed {seed} set {tag} {name} = "
                              f"{r[name]['value']:g}, expected 0")
    print("steady: all checks passed" if ok else "steady: FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
