"""Configuration-driven command line: validate-tables, simulate, fit, frc,
poincare, limitcycle. One JSON config file drives every command; artifacts are
CSV/JSON files plus a run manifest with content hashes for reproducibility."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from multiprocessing import Pool

import numpy as np

from . import __version__, analysis, beam_rom, rom as rom_mod
from . import ssm_analytic as sa
from . import ssm_data as sd
from . import vk_beam as vkb
from .core import HybridTrajectory, IntegratorOptions, integrate_hybrid
from .shaw_pierre import SpParams, make_system, sp_elastic_term, sp_field
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
    "simulate": {"x0", "t_span", "use_rom", "order", "rtol", "atol",
                 "sample_dt", "branch0", "ic_strategy", "rom_models"},
    "fit": {"order_m", "order_r", "t_span", "dt", "chart", "n_ic", "radius",
            "trim_fraction", "static_load"},
    "frc": {"omega_min", "omega_max", "n_points", "eps", "amp_coord", "rtol",
            "atol", "max_periods", "with_rom", "chunk", "order"},
    "poincare": {"n_ic", "radius", "t_span", "skip", "rtol", "atol", "span"},
    "limitcycle": {"t_span", "forcing_amp", "forcing_freq_ratio", "rtol",
                   "atol", "order_m", "order_r"},
}


class ConfigError(ValueError):
    pass


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
    if cfg.get("model", "shaw_pierre") not in ("shaw_pierre", "vk_beam"):
        raise ConfigError("model must be 'shaw_pierre' or 'vk_beam'")
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        return validate_config(json.load(fh))


def sp_params_from(cfg: dict) -> SpParams:
    return SpParams(**cfg.get("shaw_pierre", {}))


def beam_from(cfg: dict):
    bc = dict(cfg.get("vk_beam", {}))
    variant_kind = bc.pop("variant", "coulomb")
    delta = bc.pop("delta", 0.0)
    delta_tilde = bc.pop("delta_tilde", None)
    vkw = {k: bc.pop(k) for k in ("v_ground", "alpha_fric", "beta_fric")
           if k in bc}
    props = vkb.BeamProperties(**bc)
    asm = vkb.assemble_beam(props)
    if delta_tilde is not None:
        delta = vkb.delta_for_normalized(asm, variant_kind, delta_tilde, **vkw)
    variant = vkb.NonsmoothVariant(kind=variant_kind, delta=delta, **vkw)
    return asm, variant


def _write_manifest(out_dir, command, cfg, outputs):
    hashes = {}
    for name in outputs:
        p = os.path.join(out_dir, name)
        with open(p, "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "command": command,
        "config": cfg,
        "outputs": hashes,
        "versions": {"pwsrom": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# validate-tables


def cmd_validate_tables(cfg, out_dir, self_test_flip=False) -> int:
    params = sp_params_from(cfg)
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
    tables = sa.reference_tables()
    strict = ulp = total = 0
    first = True
    for (kind, branch), tab in tables.items():
        split = sa.modal_split(params, branch)
        h = sa.solve_invariance(split, 3)
        vals = h if kind == "h" else sa.solve_reduced_dynamics(split, h)
        for p, refs in sorted(tab.items()):
            for comp in (0, 1):
                computed = float(vals[p][comp])
                if self_test_flip and first:
                    computed = -computed
                    flipped = f"{kind}{branch} {p} component {comp + 1}"
                    first = False
                res = sa.compare_to_reference(computed, refs[comp])
                total += 1
                strict += res["strict"]
                ulp += res["within_one_ulp"]
                mark = "PASS" if res["strict"] else (
                    "ULP " if res["within_one_ulp"] else "FAIL")
                print(f"{kind}{branch} {p} [{comp + 1}] computed="
                      f"{computed: .5e} printed={refs[comp]:>8s} {mark}")
    print(f"strict: {strict}/{total}  within-one-ulp: {ulp}/{total}")
    if self_test_flip:
        print(f"self-test flip applied to {flipped}")
    return 0 if strict == total else 1


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg, out_dir) -> int:
    sc = cfg.get("simulate", {})
    t_span = sc.get("t_span", [0.0, 10.0])
    opts = IntegratorOptions(rtol=sc.get("rtol", 1e-9), atol=sc.get("atol", 1e-11),
                             t_eval_dt=sc.get("sample_dt"))
    outputs = []
    oscillator = cfg.get("model", "shaw_pierre") == "shaw_pierre"
    if oscillator:
        params = sp_params_from(cfg)
        dim = 4
        x0 = np.asarray(sc.get("x0", [0.5, 0.3, -0.2, 0.1]), dtype=float)
    else:
        asm, variant = beam_from(cfg)
        dim = 2 * asm.n_dof
        x0 = np.asarray(sc.get("x0", np.zeros(dim)), dtype=float)
    if sc.get("use_rom", False):
        ic_strategy = sc.get("ic_strategy", "projection")
        if sc.get("rom_models"):
            paths = sc["rom_models"]
            mp = SsmModel.from_json(paths["plus"])
            mm = SsmModel.from_json(paths["minus"])
            if oscillator:
                nrom = rom_mod.NonsmoothRom(
                    model_plus=mp, model_minus=mm,
                    switching=make_system(params).switching,
                    ic_strategy=ic_strategy)
            else:
                nrom = beam_rom.make_beam_rom(asm, variant, mp, mm,
                                              ic_strategy=ic_strategy)
            sigma0 = nrom.switching.sigma(x0)
            branch0 = sc.get("branch0", "+" if sigma0 >= 0 else "-")
        else:
            if not oscillator:
                raise ConfigError("beam ROM simulation needs simulate.rom_models "
                                  "(fit them first)")
            nrom = rom_mod.make_sp_rom(params, order=sc.get("order", 3),
                                       ic_strategy=ic_strategy)
            branch0 = sc.get("branch0", "+" if x0[1] >= 0 else "-")
        y0 = nrom.model(branch0).chart(x0)
        traj = rom_mod.simulate_rom(nrom, y0, branch0, t_span, opts)
        traj.write_csv(os.path.join(out_dir, "trajectory_rom.csv"),
                       os.path.join(out_dir, "events_rom.csv"))
        outputs += ["trajectory_rom.csv", "events_rom.csv"]
    else:
        if float(t_span[1]) <= float(t_span[0]):
            traj = HybridTrajectory()
        else:
            system = (make_system(params) if oscillator
                      else vkb.make_beam_system(asm, variant))
            traj = integrate_hybrid(system, x0, t_span, opts)
        traj.write_csv(os.path.join(out_dir, "trajectory.csv"),
                       os.path.join(out_dir, "events.csv"), dim=dim)
        outputs += ["trajectory.csv", "events.csv"]
    _write_manifest(out_dir, "simulate", cfg, outputs)
    return 0


# ---------------------------------------------------------------------------
# fit


def fit_beam_models(asm, variant, fc):
    """Per-branch manifold/dynamics fits (physical chart when requested) and
    the training datasets they were fitted on."""
    return beam_rom.fit_branch_models(
        asm, variant, order_m=fc.get("order_m", 5),
        order_r=fc.get("order_r", 5), chart=fc.get("chart", "modal"),
        static_load=fc.get("static_load", 12e3),
        t_span=fc.get("t_span", (0.0, 0.35)), dt=fc.get("dt", 1e-4),
        trim_fraction=fc.get("trim_fraction", 0.05))


def cmd_fit(cfg, out_dir) -> int:
    fc = cfg.get("fit", {})
    outputs = []
    if cfg.get("model", "shaw_pierre") == "vk_beam":
        asm, variant = beam_from(cfg)
        models, datasets = fit_beam_models(asm, variant, fc)
    else:
        params = sp_params_from(cfg)
        models = {}
        datasets = {}
        for branch in ("+", "-"):
            base = sa.build_analytic_model(params, branch)
            Vt, _ = np.linalg.qr(base.tangent)
            n_ic = fc.get("n_ic", 7)
            radius = fc.get("radius", 0.35)
            angles = np.linspace(0, 2 * np.pi, n_ic, endpoint=False)
            ics = [base.lift(radius * np.array([np.cos(a), np.sin(a)]))
                   for a in angles]
            data = sd.generate_training(
                lambda t, x, b=branch: sp_field(params, b, t, x),
                ics, fc.get("t_span", [0.0, 50.0]), fc.get("dt", 0.02),
                branch=branch, trim_fraction=fc.get("trim_fraction", 0.05))
            fit = sd.fit_manifold(data, Vt, fc.get("order_m", 3), x0=base.x0)
            dyn = sd.fit_dynamics(data, fit, fc.get("order_r", 3))
            models[branch] = sd.model_from_fits(fit, dyn, branch)
            models[branch].meta["in_sample_nmte"] = fit.in_sample_nmte
            datasets[branch] = data
    for branch, model in models.items():
        tag = "plus" if branch == "+" else "minus"
        name = f"ssm_model_{tag}.json"
        model.to_json(os.path.join(out_dir, name))
        outputs.append(name)
    for branch, data in datasets.items():
        tag = "plus" if branch == "+" else "minus"
        ddir = os.path.join(out_dir, f"dataset_{tag}")
        os.makedirs(ddir, exist_ok=True)
        t0, y0 = data.trajectories[0]
        man = {"branch": branch, "dt": float(t0[1] - t0[0]),
               "trim_fraction": data.trim_fraction,
               "n_trajectories": len(data.trajectories)}
        with open(os.path.join(ddir, "manifest.json"), "w") as fh:
            json.dump(man, fh, indent=1)
        for k, (t, y) in enumerate(data.trajectories):
            with open(os.path.join(ddir, f"traj_{k:02d}.csv"), "w",
                      newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["t"] + [f"y{i+1}" for i in range(y.shape[1])])
                for ti, yi in zip(t, y):
                    w.writerow([repr(float(ti))] + [repr(float(v)) for v in yi])
    _write_manifest(out_dir, "fit", cfg, outputs)
    return 0


# ---------------------------------------------------------------------------
# frc


def _sp_frc_point(cfg, om):
    """Forced parameters and integrator options at one FRC frequency, shared
    by the full and the reduced chunk: frc.rtol/frc.atol, max step period/64."""
    params = sp_params_from(cfg)
    fc = cfg.get("frc", {})
    p = SpParams(m1=params.m1, m2=params.m2, c=params.c, k=params.k,
                 alpha=params.alpha, delta=params.delta,
                 eps=fc.get("eps", 0.15), omega=om)
    opts = IntegratorOptions(rtol=fc.get("rtol", 1e-8), atol=fc.get("atol", 1e-10),
                             max_step=2 * np.pi / om / 64)
    return p, opts


def _sp_frc_full_chunk(task):
    cfg, omegas = task
    fc = cfg.get("frc", {})
    amp_coord = fc.get("amp_coord", 0)
    out = []
    state = None
    for om in omegas:
        p, opts = _sp_frc_point(cfg, om)
        step, period = analysis.hybrid_period_stepper(
            lambda w: make_system(p), om, amp_coord, opts)
        x0 = state if state is not None else np.zeros(4)
        amp, conv, nper, state = analysis.steady_state_amplitude(
            step, x0, period, max_periods=fc.get("max_periods", 500))
        out.append(analysis.FrcPoint(omega=om, amplitude=amp, converged=conv,
                                     n_periods=nper))
    return out


def _sp_frc_rom_chunk(task):
    cfg, omegas = task
    fc = cfg.get("frc", {})
    amp_coord = fc.get("amp_coord", 0)
    out = []
    state = None
    for om in omegas:
        p, opts = _sp_frc_point(cfg, om)
        nrom = rom_mod.make_sp_rom(p, order=fc.get("order", 3))
        step = analysis.rom_period_stepper(nrom, amp_coord, opts)
        if state is None:
            state = (np.zeros(2), "+")
        amp, conv, nper, state = analysis.steady_state_amplitude(
            step, state, 2 * np.pi / om, max_periods=fc.get("max_periods", 500))
        out.append(analysis.FrcPoint(omega=om, amplitude=amp, converged=conv,
                                     n_periods=nper))
    return out


def run_chunked(worker, cfg, omega_grid, chunk, threads):
    tasks = [(cfg, omega_grid[i:i + chunk].tolist())
             for i in range(0, len(omega_grid), chunk)]
    if threads > 1:
        with Pool(threads) as pool:
            parts = pool.map(worker, tasks)
    else:
        parts = [worker(t) for t in tasks]
    return [p for part in parts for p in part]


def cmd_frc(cfg, out_dir, threads=1) -> int:
    if cfg.get("model", "shaw_pierre") != "shaw_pierre":
        raise ConfigError("the frc command drives the oscillator model; beam "
                          "response runs through the acceptance/fit pipeline")
    fc = cfg.get("frc", {})
    grid = np.linspace(fc.get("omega_min", 0.8), fc.get("omega_max", 1.2),
                       fc.get("n_points", 81))
    chunk = fc.get("chunk", 16)
    full = run_chunked(_sp_frc_full_chunk, cfg, grid, chunk, threads)
    if fc.get("with_rom", True):
        romp = run_chunked(_sp_frc_rom_chunk, cfg, grid, chunk, threads)
    else:
        romp = [analysis.FrcPoint(omega=om, amplitude=np.nan, converged=False,
                                  n_periods=0) for om in grid]
    with open(os.path.join(out_dir, "frc.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["omega", "amp_full", "amp_rom", "converged_full",
                    "converged_rom"])
        for pf, pr in zip(full, romp):
            w.writerow([repr(float(pf.omega)), repr(float(pf.amplitude)),
                        repr(float(pr.amplitude)), int(pf.converged),
                        int(pr.converged)])
    _write_manifest(out_dir, "frc", cfg, ["frc.csv"])
    return 0


# ---------------------------------------------------------------------------
# poincare


def cmd_poincare(cfg, out_dir) -> int:
    if cfg.get("model", "shaw_pierre") != "shaw_pierre":
        raise ConfigError("the poincare command drives the oscillator model")
    pc = cfg.get("poincare", {})
    params = sp_params_from(cfg)
    system = make_system(params)
    rng = np.random.default_rng(cfg.get("seed", 0))
    nrom = rom_mod.make_sp_rom(params)
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
    data = analysis.poincare_map(system, ics, pc.get("t_span", [0.0, 400.0]),
                                 margin, skip=pc.get("skip", 5), opts=opts)
    approx = analysis.approx_invariant_curve(nrom, margin,
                                             span=pc.get("span", 0.5))
    with open(os.path.join(out_dir, "poincare.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iter", "q1", "q2", "dq2", "direction"])
        for i, (x, d) in enumerate(zip(data.invariant_points, data.directions)):
            w.writerow([i, repr(float(x[0])), repr(float(x[2])),
                        repr(float(x[3])), int(d)])
    edges = {
        "edge_plus": _maybe_list(data.edge_plus),
        "edge_minus": _maybe_list(data.edge_minus),
        "reduced_edge_plus": _maybe_list(approx["edge_plus"]),
        "reduced_edge_minus": _maybe_list(approx["edge_minus"]),
    }
    with open(os.path.join(out_dir, "edges.json"), "w") as fh:
        json.dump(edges, fh, indent=1)
    _write_manifest(out_dir, "poincare", cfg, ["poincare.csv", "edges.json"])
    return 0


def _maybe_list(x):
    return None if x is None else np.asarray(x).tolist()


# ---------------------------------------------------------------------------
# limitcycle


def cmd_limitcycle(cfg, out_dir) -> int:
    if cfg.get("model") != "vk_beam":
        raise ConfigError("the limitcycle command drives the beam model")
    lc = cfg.get("limitcycle", {})
    asm, variant = beam_from(cfg)
    if variant.kind != "moving_belt":
        raise ConfigError("limit cycles require the moving_belt variant")
    opts = IntegratorOptions(rtol=lc.get("rtol", 1e-7), atol=lc.get("atol", 1e-10),
                             first_step=1e-6)
    system = vkb.make_beam_system(asm, variant)
    x0 = vkb.branch_fixed_point(asm, variant, "-")
    x0 = x0 + 1e-4 * np.ones_like(x0)
    t_span = lc.get("t_span", [0.0, 1.5])
    traj = integrate_hybrid(system, x0, t_span, opts)
    cyc = analysis.detect_limit_cycle(traj, coord=asm.mid_dof_index)
    out = {"full": None, "rom": None}
    if cyc is not None:
        out["full"] = {"period": cyc.period, "frequency": cyc.frequency,
                       "amplitude": cyc.amplitude,
                       "samples": cyc.x_samples[:, asm.mid_dof_index].tolist()}
    fc = {"order_m": lc.get("order_m", 5), "order_r": lc.get("order_r", 5),
          "chart": "physical"}
    models, _ = fit_beam_models(asm, variant, fc)
    nrom = beam_rom.make_beam_rom(asm, variant, models["+"], models["-"])
    y0 = nrom.model("-").chart(x0)
    rtraj = rom_mod.simulate_rom(nrom, y0, "-", t_span,
                                 IntegratorOptions(rtol=1e-8, atol=1e-11))
    rcyc = analysis.detect_limit_cycle(rtraj, coord=asm.mid_dof_index)
    if rcyc is not None:
        out["rom"] = {"period": rcyc.period, "frequency": rcyc.frequency,
                      "amplitude": rcyc.amplitude,
                      "samples": rcyc.x_samples[:, asm.mid_dof_index].tolist()}
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
    cfg = load_config(args.config) if args.config else validate_config({})
    if args.seed is not None:
        cfg["seed"] = args.seed
    os.makedirs(args.out_dir, exist_ok=True)
    try:
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
        if args.command == "limitcycle":
            return cmd_limitcycle(cfg, args.out_dir)
    except (ConfigError, RuntimeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
