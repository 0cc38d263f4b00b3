#!/usr/bin/env python3
"""Measure the run-to-run spread and drift of the benchmark's end-to-end metrics.

Runs two sets of runs of the benchmark on each named workload, seeds 1
to --runs in each set. The runs are interleaved: each seed runs on
every workload in the first set, then in the second, before the next
seed, so the two sets see the same drift of the machine. For every
end-to-end metric it prints, per set, the median of the runs and the
distance between their first and third quartiles as a share of the
median, and how far the second set's median lies from the first's,
next to the metric's bound from BENCHMARK.json. It stops with an error
if a run fails a check or if the two sets' digests of the simulated
statistics differ for any workload and seed. Run from the root of the
repository:

    python3 perfbench/spread.py --runs 10 sim_solo sim_observed
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    digest = next(line for line in lines if line.startswith("digest: "))
    return {name: m["value"] for name, m in result["metrics"].items()}, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="workloads (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set, one seed each")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    # values[workload][set][metric] is the list of the set's values.
    values = {w: [{}, {}] for w in workloads}
    digests = {}
    for seed in range(1, args.runs + 1):
        for s in range(2):
            for w in workloads:
                got, digest = run_once(bench, w, seed)
                if digests.setdefault((w, seed), digest) != digest:
                    sys.exit(f"{w} seed {seed}: digest differs between sets: {digests[(w, seed)]} vs {digest}")
                for name, v in got.items():
                    values[w][s].setdefault(name, []).append(v)
                print(f"{w} set {s + 1} seed {seed}: " + " ".join(
                    f"{n}={v:.4g}" for n, v in sorted(got.items())), flush=True)

    print(f"\ndigests identical between the sets for all {len(digests)} workload-seed pairs")
    for w in workloads:
        print(f"\n{w} (2 sets x {args.runs} runs)")
        print(f"  {'metric':<12} {'median 1':>10} {'spread 1':>9} {'median 2':>10} {'spread 2':>9}"
              f" {'shift':>7} {'bound':>6}")
        for name in sorted(values[w][0]):
            meds, spreads = [], []
            for s in range(2):
                q1, med, q3 = statistics.quantiles(values[w][s][name], n=4)
                meds.append(med)
                spreads.append((q3 - q1) / med)
            shift = (meds[1] - meds[0]) / meds[0]
            bound = metrics[name]["bound"]
            flags = ""
            if name != "setup_s" and max(spreads) >= bound / 3:
                flags += "  WIDE"
            if abs(shift) > bound:
                flags += "  DRIFT"
            print(f"  {name:<12} {meds[0]:>10.5g} {spreads[0]:>8.1%} {meds[1]:>10.5g} {spreads[1]:>8.1%}"
                  f" {shift:>+6.1%} {bound:>6.0%}{flags}", flush=True)


if __name__ == "__main__":
    main()
