#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the repository root, for example:

    python3 perfbench/spread.py --workloads analytic,fetch --seeds 1-10
    python3 perfbench/spread.py --workloads fetch --seeds 1-5 --trace 1

For every workload and metric it records the raw per-run values next to
their median and quartiles (as statistics.quantiles(values, n=4) gives
them) and the spread, (Q3 - Q1) / median. With --trace 0 it flags every
gated metric whose spread is not below a third of its bound in
BENCHMARK.json. Each run's report line (host, sample counts, per-window
values) is kept beside the metrics.
The summary is written as JSON (default .bench_build/spread.json); two
summaries of the same seeds, one per commit, are the input of a paired
comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, report, wall


def summarize(values):
    if len(values) < 2:
        return {"values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default=".bench_build/spread.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"trace": args.trace, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        per_metric, reports, walls = {}, [], []
        for seed in args.seeds:
            result, report, wall = run_once(bench, workload, seed, args.trace)
            reports.append(report)
            walls.append(round(wall, 1))
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s", file=sys.stderr)
        stats = {name: summarize(vals) for name, vals in sorted(per_metric.items())}
        summary["workloads"][workload] = {"wall_s": walls, "metrics": stats, "reports": reports}
        print(f"\n{workload}")
        for name, s in stats.items():
            spread = s.get("spread")
            flag = ""
            if args.trace == 0 and name in bounds and name != "setup_s" and spread is not None:
                if spread >= bounds[name] / 3:
                    flag = f"  <-- spread >= bound/3 ({bounds[name] / 3:.3f})"
                    ok = False
            med = s.get("median")
            print(f"  {name:36s} median {med if med is not None else float('nan'):14.6g}"
                  f"  spread {spread if spread is not None else float('nan'):8.4f}{flag}")
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
