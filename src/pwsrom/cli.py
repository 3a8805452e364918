"""Configuration-driven command line: validate-tables, simulate, fit, frc,
poincare, limitcycle. One JSON config file drives every command; artifacts are
CSV/JSON files plus a run manifest with content hashes for reproducibility."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, analysis
from . import ssm_analytic as sa
from . import vk_beam as vkb
from .core import (HybridTrajectory, IntegratorOptions, integrate_hybrid,
                   write_rows)
from .problem import Beam, ConfigError, Oscillator
from .rom import simulate_rom
from .shaw_pierre import sp_elastic_term
from .ssm_model import SsmModel

_SP_KEYS = {"m1", "m2", "c", "k", "alpha", "delta", "eps", "omega"}
_BEAM_KEYS = {"length", "width", "thickness", "young_modulus", "density",
              "poisson", "damping_modulus", "n_elements", "variant", "delta",
              "delta_tilde", "v_ground", "alpha_fric", "beta_fric"}
_SCHEMA = {
    "model": str,
    "seed": int,
    "shaw_pierre": _SP_KEYS,
    "vk_beam": _BEAM_KEYS,
    "simulate": {"x0", "t_span", "use_rom", "rtol", "atol", "sample_dt",
                 "ic_strategy", "rom_models"},
    # each model refuses the fit keys its recipe does not read (fit_config)
    "fit": {*Oscillator.fit_defaults, *Beam.decay_fit_defaults,
            *Beam.belt_fit_defaults},
    "frc": {"omega_min", "omega_max", "n_points", "eps", "rtol", "atol",
            "max_periods", "with_rom", "chunk"},
    "poincare": {"n_ic", "radius", "t_span", "skip", "rtol", "atol"},
    "limitcycle": {"t_span", "rtol", "atol"},
}
_PROBLEMS = {"shaw_pierre": Oscillator, "vk_beam": Beam}


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if isinstance(allowed, set):
            if not isinstance(val, dict):
                raise ConfigError(f"{key} must be an object")
            for sub in val:
                if sub not in allowed:
                    raise ConfigError(f"unknown key {key}.{sub}")
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        return validate_config(json.load(fh))


def problem_from(cfg: dict):
    """The config's model (pwsrom.problem), built from its own section. A
    fit section is checked against the model's fit here, so a command that
    does not fit refuses it as the fit would."""
    model = cfg.get("model", "shaw_pierre")
    if model not in _PROBLEMS:
        raise ConfigError("model must be 'shaw_pierre' or 'vk_beam'")
    problem = _PROBLEMS[model].from_config(cfg.get(model, {}))
    if "fit" in cfg:
        problem.fit_config(cfg["fit"])
    return problem


def _write_manifest(out_dir, command, cfg, outputs, **extra):
    hashes = {}
    for name in outputs:
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {"command": command, "config": cfg, "outputs": hashes,
                "versions": {"pwsrom": __version__, "numpy": np.__version__,
                             "python": sys.version.split()[0]}, **extra}
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# validate-tables


def cmd_validate_tables(cfg, out_dir, self_test_flip=False) -> int:
    problem = problem_from(cfg)
    if not isinstance(problem, Oscillator):
        raise ConfigError("validate-tables checks the oscillator's published "
                          "coefficient tables")
    params = problem.params
    if params.delta == 0.0:
        split = sa.modal_split(params, "+")
        h = sa.solve_invariance(split, 3)
        r = sa.solve_reduced_dynamics(split, h)
        quad = max(np.abs(np.concatenate(
            [h[p] for p in h if sum(p) == 2] + [r[p] for p in r if sum(p) == 2])))
        print("delta = 0: table comparison skipped (reference tables are for "
              "delta = 0.1)")
        print(f"quadratic coefficients max |.| = {quad:.3e} (expected 0)")
        return 0 if quad < 1e-12 else 1
    strict = ulp = total = 0
    for name, comp, computed, printed in sa.table_entries(params):
        if self_test_flip and not total:
            computed, flipped = -computed, f"{name} component {comp}"
        res = sa.compare_to_reference(computed, printed)
        total += 1
        strict += res["strict"]
        ulp += res["within_one_ulp"]
        mark = "PASS" if res["strict"] else (
            "ULP " if res["within_one_ulp"] else "FAIL")
        print(f"{name} [{comp}] computed={computed: .5e} "
              f"printed={printed:>8s} {mark}")
    print(f"strict: {strict}/{total}  within-one-ulp: {ulp}/{total}")
    if self_test_flip:
        print(f"self-test flip applied to {flipped}")
    return 0 if strict == total else 1


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg, out_dir) -> int:
    problem = problem_from(cfg)
    sc = cfg.get("simulate", {})
    t_span = sc.get("t_span", [0.0, 10.0])
    opts = IntegratorOptions(rtol=sc.get("rtol", 1e-9), atol=sc.get("atol", 1e-11),
                             t_eval_dt=sc.get("sample_dt"))
    x0 = np.asarray(sc.get("x0", problem.default_x0), dtype=float)
    if x0.shape != (problem.dim,):
        raise ConfigError(f"simulate.x0 needs {problem.dim} entries, one per "
                          f"state, not {x0.size}")
    if sc.get("use_rom", False):
        paths = sc.get("rom_models")
        models = {"+": SsmModel.from_json(paths["plus"]),
                  "-": SsmModel.from_json(paths["minus"])} if paths else None
        nrom = problem.rom(models=models,
                           ic_strategy=sc.get("ic_strategy", "projection"))
        index, level = nrom.surface
        branch0 = "+" if x0[index] - level >= 0 else "-"
        y0 = nrom.model(branch0).chart(x0)
        traj = simulate_rom(nrom, y0, branch0, t_span, opts)
        outputs = ["trajectory_rom.csv", "events_rom.csv"]
    else:
        traj = HybridTrajectory()
        if float(t_span[1]) > float(t_span[0]):
            traj = integrate_hybrid(problem.system(), x0, t_span, opts)
        outputs = ["trajectory.csv", "events.csv"]
    traj.write_csv(*(os.path.join(out_dir, name) for name in outputs),
                   dim=problem.dim)
    _write_manifest(out_dir, "simulate", cfg, outputs)
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg, out_dir) -> int:
    models, datasets = problem_from(cfg).fit(cfg.get("fit", {}))
    outputs = []
    for branch, tag in (("+", "plus"), ("-", "minus")):
        name = f"ssm_model_{tag}.json"
        models[branch].to_json(os.path.join(out_dir, name))
        outputs.append(name)
        data = datasets[branch]
        ddir = os.path.join(out_dir, f"dataset_{tag}")
        os.makedirs(ddir, exist_ok=True)
        t0, y0 = data.trajectories[0]
        man = {"branch": branch, "dt": float(t0[1] - t0[0]),
               "trim_fraction": data.trim_fraction,
               "n_trajectories": len(data.trajectories)}
        with open(os.path.join(ddir, "manifest.json"), "w") as fh:
            json.dump(man, fh, indent=1)
        for k, (t, y) in enumerate(data.trajectories):
            write_rows(os.path.join(ddir, f"traj_{k:02d}.csv"),
                       ["t"] + [f"y{i+1}" for i in range(y.shape[1])],
                       np.column_stack([t, y]).tolist())
    _write_manifest(out_dir, "fit", cfg, outputs)
    return 0


# ---------------------------------------------------------------------------
# frc


def cmd_frc(cfg, out_dir, threads=1) -> int:
    problem = problem_from(cfg)
    fc = {**problem.frc_defaults, **cfg.get("frc", {})}
    missing = [f"frc.{k}" for k in ("omega_min", "omega_max", "eps")
               if k not in fc]
    if missing:
        raise ConfigError(f"frc needs {', '.join(missing)}: this model has "
                          "no default band or amplitude in its units")
    grid = np.linspace(fc["omega_min"], fc["omega_max"], fc.get("n_points", 81))
    tol = {k: fc[k] for k in ("rtol", "atol") if k in fc}
    sweep = {"chunk": fc.get("chunk", 16), "threads": threads,
             "max_periods": fc.get("max_periods", 500)}
    rom = {"models": None}
    if fc.get("with_rom", True) and not problem.analytic_rom:
        rom["models"] = problem.fit(cfg.get("fit", {}))[0]
        # a fitted ROM that cannot run (a chart that cannot stick) fails
        # here, before the full sweep
        problem.rom(grid[0], fc["eps"], **rom)
    full = analysis.frc_sweep(problem, grid, fc["eps"],
                              replace(problem.full_options, **tol), **sweep)
    if fc.get("with_rom", True):
        romp = analysis.frc_sweep(
            problem, grid, fc["eps"], replace(problem.rom_options, **tol),
            rom=rom, **sweep)
    else:
        romp = [analysis.FrcPoint(omega=om, amplitude=np.nan, converged=False,
                                  n_periods=0) for om in grid]
    write_rows(os.path.join(out_dir, "frc.csv"),
               ["omega", "amp_full", "amp_rom", "converged_full",
                "converged_rom"],
               [[float(pf.omega), float(pf.amplitude), float(pr.amplitude),
                 int(pf.converged), int(pr.converged)]
                for pf, pr in zip(full, romp)])
    # each point's periods and final relative residual (null without the
    # reduced model)
    points = {name: [{"n_periods": p.n_periods,
                      "residual": None if np.isnan(p.residual)
                      else float(p.residual)} for p in pts]
              for name, pts in (("full", full), ("rom", romp))}
    _write_manifest(out_dir, "frc", cfg, ["frc.csv"], points=points)
    return 0


# ---------------------------------------------------------------------------
# poincare


def cmd_poincare(cfg, out_dir) -> int:
    problem = problem_from(cfg)
    if not isinstance(problem, Oscillator):
        raise ConfigError("poincare runs on the oscillator: its return map "
                          "and edges measure the oscillator's sticking margin")
    pc = cfg.get("poincare", {})
    params = problem.params
    rng = np.random.default_rng(cfg.get("seed", 0))
    nrom = problem.rom()
    radius = pc.get("radius", 0.4)
    n_ic = pc.get("n_ic", 6)
    ics = []
    for _ in range(n_ic):
        th = rng.uniform(0, 2 * np.pi)
        b = "+" if rng.uniform() < 0.5 else "-"
        y = radius * np.array([np.cos(th), np.sin(th)])
        ics.append(nrom.model(b).lift(y))
    opts = IntegratorOptions(rtol=pc.get("rtol", 1e-9), atol=pc.get("atol", 1e-11))
    margin = lambda x: abs(sp_elastic_term(params, x)) - params.delta
    data = analysis.poincare_map(problem.system(), ics,
                                 pc.get("t_span", [0.0, 400.0]), margin,
                                 skip=pc.get("skip", 5), opts=opts)
    approx = analysis.approx_invariant_curve(nrom, margin, span=0.5)
    points = data.invariant_points[:, [0, 2, 3]].tolist()
    write_rows(os.path.join(out_dir, "poincare.csv"),
               ["iter", "q1", "q2", "dq2", "direction"],
               [[i, *x, d] for i, (x, d)
                in enumerate(zip(points, data.directions.tolist()))])
    edges = {name: None if x is None else np.asarray(x).tolist()
             for name, x in (("edge_plus", data.edge_plus),
                             ("edge_minus", data.edge_minus),
                             ("reduced_edge_plus", approx["edge_plus"]),
                             ("reduced_edge_minus", approx["edge_minus"]))}
    with open(os.path.join(out_dir, "edges.json"), "w") as fh:
        json.dump(edges, fh, indent=1)
    _write_manifest(out_dir, "poincare", cfg, ["poincare.csv", "edges.json"])
    return 0


# ---------------------------------------------------------------------------
# limitcycle


def _cycle(traj, coord):
    """The detected limit cycle of `traj` as JSON, or None."""
    cyc = analysis.detect_limit_cycle(traj, coord=coord)
    if cyc is None:
        return None
    return {"period": cyc.period, "frequency": cyc.frequency,
            "amplitude": cyc.amplitude,
            "samples": cyc.x_samples[:, coord].tolist()}


def cmd_limitcycle(cfg, out_dir) -> int:
    problem = problem_from(cfg)
    if not (isinstance(problem, Beam) and problem.variant.kind == "moving_belt"):
        raise ConfigError("limitcycle finds the stick-slip cycle of the beam "
                          "on a moving belt: it needs model vk_beam with "
                          "variant moving_belt")
    lc = cfg.get("limitcycle", {})
    asm = problem.assembly
    models, _ = problem.fit(cfg.get("fit", {}))
    opts = IntegratorOptions(rtol=lc.get("rtol", 1e-7), atol=lc.get("atol", 1e-10),
                             first_step=1e-6)
    x0 = vkb.branch_fixed_point(asm, problem.variant, "-") + 1e-4
    t_span = lc.get("t_span", [0.0, 1.5])
    traj = integrate_hybrid(problem.system(), x0, t_span, opts)
    nrom = problem.rom(models=models)
    rtraj = simulate_rom(nrom, nrom.model("-").chart(x0), "-", t_span,
                         IntegratorOptions(rtol=1e-8, atol=1e-11))
    out = {"full": _cycle(traj, asm.mid_dof_index),
           "rom": _cycle(rtraj, asm.mid_dof_index)}
    with open(os.path.join(out_dir, "limitcycle.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    _write_manifest(out_dir, "limitcycle", cfg, ["limitcycle.json"])
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pwsrom",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["validate-tables", "simulate", "fit",
                                        "frc", "poincare", "limitcycle"])
    ap.add_argument("--config", required=False, help="JSON config path")
    ap.add_argument("--out-dir", default=".", help="artifact directory")
    ap.add_argument("--seed", type=int, default=None, help="override rng seed")
    ap.add_argument("--threads", type=int, default=1,
                    help="parallel workers for independent work items")
    ap.add_argument("--self-test-flip", action="store_true",
                    help="validate-tables harness self-test: flip one entry")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        os.makedirs(args.out_dir, exist_ok=True)
        if args.command == "validate-tables":
            return cmd_validate_tables(cfg, args.out_dir, args.self_test_flip)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out_dir)
        if args.command == "fit":
            return cmd_fit(cfg, args.out_dir)
        if args.command == "frc":
            return cmd_frc(cfg, args.out_dir, threads=args.threads)
        if args.command == "poincare":
            return cmd_poincare(cfg, args.out_dir)
        return cmd_limitcycle(cfg, args.out_dir)
    except (ConfigError, RuntimeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
