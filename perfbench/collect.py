"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/collect.py --workloads osc_frc beam --seeds 1-10 \
        --out BENCH_example.json

For each workload it runs `run.py` once per seed (untraced, or traced with
--trace 1), and writes the per-metric median, quartiles and spread (the
distance between the quartiles as a share of the median), together with the
core count and the git commit when the checkout is a git repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else None,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="summary JSON path")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    summary = {"git_sha": git_sha(), "cores": os.cpu_count(),
               "python": platform.python_version(), "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"error: {name} seed {seed} exited with "
                         f"{proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            line = "  ".join(f"{k}={v['value']:.4g}"
                             for k, v in res["metrics"].items()
                             if args.trace == 0)
            print(f"{name} seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']}  {line}", flush=True)
        metrics = {k: summarise([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}
        for k, m in metrics.items():
            if args.trace == 0:
                print(f"{name} {k}: median {m['median']:.4g} spread "
                      f"{m['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
