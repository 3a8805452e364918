"""Checks of the benchmark itself, and the writer of its references.

    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-references

The self-check verifies that
- every name in BENCHMARK.json and layers.json is well formed, and the traced
  run reports exactly the per-layer metrics BENCHMARK.json lists;
- the stored references pass their own checks, and each perturbed reference
  output is reported as exactly one failed operation;
- a reduced-size smoke run of every workload, untraced and traced, finishes
  and prints a well-formed result line.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def write_references(root) -> int:
    """Run one iteration of every workload at the reference seed and store it."""
    from workloads import REFERENCE_SEED, WORKLOADS, reference_view
    refs = {}
    for name, cls in WORKLOADS.items():
        work = os.path.join(root, ".perfbench_work", f"refs-{name}")
        try:
            wl = cls(REFERENCE_SEED, work)
            out = wl.iterate(None, 0)
            ops, _ = wl.check(out, None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        bad = [(op, p) for op, p in ops if p]
        if bad:
            print(f"error: {name} fails its invariant checks: {bad}", file=sys.stderr)
            return 1
        refs[name] = reference_view(out)
        print(f"{name}: {len(ops)} operations stored")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1)
    return 0


def _as_outputs(name, ref):
    """Outputs that reproduce the reference exactly, as iterate() returns them."""
    import numpy as np
    out = copy.deepcopy(ref)
    if name == "osc_switching":
        # the NMTE check needs trajectories; identical ones give NMTE 0
        for key in ("full", "rom_fit"):
            out[key]["t"] = np.array([0.0, 1.0])
            out[key]["x"] = np.array([out["full"]["final"]] * 2)
    return out


def _perturb(refs, path, fn):
    node = refs
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])


def _largest_key(coeffs):
    return max(coeffs, key=lambda k: max(abs(v) for v in coeffs[k]))


# (workload, operation expected to fail, path into its reference, change)
PERTURBATIONS = (
    ("osc_frc", "point05", ("amp_full", 5), lambda v: v * 1.05),
    ("osc_frc", "point11", ("amp_rom", 11), lambda v: v * 0.95),
    ("osc_switching", "full", ("full", "events", 3, 0), lambda v: v + 1e-3),
    ("osc_switching", "rom_fit", ("rom_fit", "final", 0), lambda v: v + 1e-2),
    ("osc_switching", "rom_analytic", ("rom_analytic", "events", 5, 1),
     lambda v: "tangential"),
    ("osc_switching", "poincare", ("poincare", "edges", "reduced_edge_plus", 0),
     lambda v: v + 1e-2),
    ("beam", "coulomb1", ("coulomb1", "amplitudes", -1), lambda v: v * 1.01),
    ("beam", "belt", ("belt", "frequency"), lambda v: v * 1.001),
)


def check_references(root, problems):
    from workloads import REFERENCE_SEED, WORKLOADS
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "references.json")) as fh:
        refs = json.load(fh)
    work = os.path.join(root, ".perfbench_work", "selfcheck")
    try:
        made = {n: cls(REFERENCE_SEED, os.path.join(work, n))
                for n, cls in WORKLOADS.items()}
        for name, wl in made.items():
            ops, _ = wl.check(_as_outputs(name, refs[name]), refs[name])
            bad = [op for op, p in ops if p]
            if bad:
                problems.append(f"{name}: reference fails its own check: {bad}")
        fit = refs["osc_switching"]["fit"]["plus"]["nl"]
        perturbations = PERTURBATIONS + (
            ("osc_switching", "fit", ("fit", "plus", "nl", _largest_key(fit), 0),
             lambda v: v * 1.01),)
        for name, op, path, fn in perturbations:
            bent = copy.deepcopy(refs[name])
            _perturb(bent, path, fn)
            ops, _ = made[name].check(_as_outputs(name, refs[name]), bent)
            failed = [o for o, p in ops if p]
            if failed != [op]:
                problems.append(f"{name}: perturbing {path} failed {failed}, "
                                f"expected [{op!r}]")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_names(root, problems):
    from tracing import Tracer
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layers.json")) as fh:
        layers = json.load(fh)
    shape = {"command": None, "paths": None, "run_seconds": None,
             "workloads": {"name", "why"},
             "end_to_end": {"name", "unit", "better", "bound"},
             "per_layer": {"name", "unit", "better"}}
    if set(bench) != set(shape):
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
        return
    for key, fields in shape.items():
        for m in bench[key] if fields else ():
            if set(m) != fields:
                problems.append(f"{key} entry {m.get('name')!r} has keys {sorted(m)}")
            if m.get("better", "lower") not in ("lower", "higher"):
                problems.append(f"{m['name']}: better must be lower or higher")
            if not 0 < m.get("bound", 0.1) <= 0.25:
                problems.append(f"{m['name']}: bound outside (0, 0.25]")
            if len(m.get("why", "")) > 200 or "\n" in m.get("why", ""):
                problems.append(f"{m['name']}: why is not one line of <= 200 characters")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    for n in names:
        if not NAME.fullmatch(n):
            problems.append(f"malformed name {n!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice in BENCHMARK.json")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]):
            problems.append(f"malformed unit {m['unit']!r} of {m['name']}")
    reported = set(Tracer().metrics()) | {"trace.overhead_s"}
    listed = {m["name"] for m in bench["per_layer"]}
    if reported != listed:
        problems.append(f"per-layer metrics reported but not listed: "
                        f"{sorted(reported - listed)}; listed but not reported: "
                        f"{sorted(listed - reported)}")
    known = listed | {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for row in layers["moves"]:
        for key in ("layer_metrics", "end_to_end"):
            for n in row[key]:
                if n not in known:
                    problems.append(f"layers.json names unknown metric {n!r}")
        for w in row["workloads"] + row["no_change"]:
            if w not in workloads:
                problems.append(f"layers.json names unknown workload {w!r}")


def check_smoke(root, problems):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, run, "--workload", "all", "--smoke",
             "--seconds", "1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"smoke run (trace {trace}) exited with "
                            f"{proc.returncode}: {proc.stderr[-500:]}")
            continue
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {m["name"] for m in bench[key]}
        for name, res in results.items():
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"smoke {name}: result keys {sorted(res)}")
            elif set(res["metrics"]) != want:
                problems.append(f"smoke {name} (trace {trace}): metrics "
                                f"{sorted(set(res['metrics']) ^ want)} differ")
            elif not res["correct"] or res["attempted"] < 1:
                problems.append(f"smoke {name} (trace {trace}): "
                                f"{res['failed']} of {res['attempted']} failed")


def main(root) -> int:
    problems = []
    for step in (check_names, check_references, check_smoke):
        before = len(problems)
        step(root, problems)
        status = "ok" if len(problems) == before else "FAILED"
        print(f"{step.__name__}: {status}", flush=True)
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0
