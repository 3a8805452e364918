"""Benchmark of the pwsrom package: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload osc_frc --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-check            # checks of the benchmark

The package is imported from the checkout's `src/`; the run fails if it is
not there. With `--trace 0` the run reports the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_ROOT = os.path.join(ROOT, ".perfbench_traces")
SETUP_PROBES = 5

# every workload runs single-threaded (--threads 1); BLAS worker threads would
# otherwise compete for the same two cores and add noise to the timings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_package():
    """Import pwsrom from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import pwsrom
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pwsrom from {src}: {exc}")
    where = os.path.dirname(os.path.abspath(pwsrom.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"error: pwsrom imported from {where}, not from {src}")


def load_references():
    path = os.path.join(HERE, "references.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def setup_probe(workload, seed):
    """Set up one workload in this fresh interpreter and exit."""
    import_package()
    from workloads import WORKLOADS
    work = os.path.join(WORK_ROOT, f"probe-{os.getpid()}")
    try:
        WORKLOADS[workload](seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def time_setup(workload, seed):
    """Median wall time of fresh-interpreter set-ups: imports, inputs, assembly."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-probe", "--workload", workload,
                        "--seed", str(seed)], check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(name, seed, seconds, trace, smoke=False):
    """Measure one workload; returns (result dict, report lines)."""
    from tracing import Tracer
    from workloads import WORKLOADS

    setup_s = time_setup(name, seed)
    work = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    refs = None if smoke else load_references().get(name)
    tracer = Tracer() if trace else None
    plain, traced = [], []
    attempted = failed = 0
    problems = []
    rom_errs = []
    try:
        wl = WORKLOADS[name](seed, work, smoke=smoke)
        t_start = time.perf_counter()
        it = 0
        while True:
            # traced runs alternate untraced and traced iterations, so the
            # tracing overhead is measured on the same inputs
            use_trace = trace and it % 2 == 1
            if use_trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = wl.iterate(tracer if use_trace else None, it)
            finally:
                dt = time.perf_counter() - t0
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else plain).append(dt)
            if use_trace:
                tracer.iterations += 1
            ops, rom_err = wl.check(out, refs)
            attempted += len(ops)
            for op, p in ops:
                if p:
                    failed += 1
                    problems.append(f"iteration {it} {op}: " + "; ".join(p))
            if rom_err is not None:
                rom_errs.append(rom_err)
            it += 1
            elapsed = time.perf_counter() - t_start
            need_trace = trace and not traced
            if not need_trace and elapsed + statistics.median(plain + traced) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(plain)
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}"
             + ("  (smoke)" if smoke else "")]
    lines.append(f"  wall_s       {wall_s:.4f} s   median of n={len(plain)} "
                 f"iterations; max {max(plain):.4f} s")
    lines.append(f"  setup_s      {setup_s:.4f} s   median of {SETUP_PROBES} "
                 "fresh-interpreter set-ups")
    lines.append(f"  fail_frac    {failed / attempted:.4f}     {failed} of "
                 f"{attempted} operations failed")
    if rom_errs:
        lines.append(f"  rom_err      {max(rom_errs):.4f}     {wl.rom_err_label}")
    else:
        lines.append("  rom_err      n/a        no reduced model in this workload")
    lines.append(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    lines += [f"  FAILED {p}" for p in problems]

    if trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        lines.append(f"  traced wall_s {statistics.median(traced):.4f} s; "
                     f"overhead {metrics['trace.overhead_s']:.4f} s")
        lines.append("  layer                           calls     total_s      self_s")
        for layer, calls, total, self_s in tracer.layer_table():
            n = tracer.iterations
            lines.append(f"  {layer:28s} {calls / n:10.0f} {total / n:11.4f} "
                         f"{self_s / n:11.4f}")
        os.makedirs(TRACE_ROOT, exist_ok=True)
        path = os.path.join(TRACE_ROOT, f"{name}-seed{seed}.json")
        tracer.write(path)
        lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, lines


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_all(args):
    """Every workload in its own interpreter, so peak memory is per workload."""
    results = {}
    for name in [w["name"] for w in load_benchmark()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []),
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="osc_frc, osc_switching, beam or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring time; iterations stop before exceeding it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs, no reference comparison")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true",
                    help="check the benchmark itself and exit")
    ap.add_argument("--write-references", action="store_true",
                    help="store one iteration of every workload at seed 0")
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "pwsrom")):
        print(f"error: no pwsrom sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.self_check or args.write_references:
        import_package()
        import selfcheck
        if args.self_check:
            return selfcheck.main(ROOT)
        return selfcheck.write_references(ROOT)
    if args.workload == "all":
        results = run_all(args)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), smoke=args.smoke)
    print("\n".join(lines), flush=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
