#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each time with another
seed, and reports how steady each end-to-end metric is.

Run it from the checkout root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/records/steadiness.json

For every workload and metric it records the median and the quartiles of
the runs' values, as statistics.quantiles(values, n=4) gives them, and the
spread: the distance between the quartiles as a share of the median. Each
run's raw and wall-clock figures and its host record are kept beside the
calibrated values. The spread of every metric must stay within the
metric's bound in BENCHMARK.json; the script exits with status 1 when one
does not, or when a run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for wl in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: incorrect: {detail.get('failures')}", file=sys.stderr)
                ok = False
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        if len(runs) < 2:
            ok = False
            continue
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": s, "bound": bounds[name],
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
            if s > bounds[name]:
                ok = False
            print(f"  {wl} {name}: median {q2:.4g} spread {s:.3f} (bound {bounds[name]})", flush=True)
        record["workloads"][wl] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
