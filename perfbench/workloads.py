"""The benchmark's workloads: seeded inputs, one iteration of work, checks.

Each workload builds its inputs from the seed in its constructor (the set-up
that `setup_s` times), runs one unit of work per `iterate()` call and returns
the outputs it read back, and `check()` turns those outputs into operations
that passed or failed. The references in references.json are compared in
full at seed 0. The parts that do not depend on the seed (the fitted models,
the reduced-only return-map edges, the limit-cycle frequency) are compared at
every seed, and every seed is held to the invariant checks.

An operation is one CLI command, one FRC point or one integration. It fails
when it raises, exits non-zero, does not converge, or gives a result outside
the tolerance below.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from pwsrom import analysis, cli, core
from pwsrom import ssm_data as sd
from pwsrom import vk_beam as vkb
from pwsrom.core import IntegratorOptions

REFERENCE_SEED = 0
# criterion 7: reduced-model response within 5% of the full model
ROM_TOL = 0.05
# brute-force steady amplitudes settle only to about 1e-3 per period, so an
# algorithm that reaches the same orbit may land up to ~1e-2 away
FRC_AMP_TOL = 1e-2
# fixed-horizon integrations: same orbit to integrator accuracy
EVENT_T_TOL = 1e-4
STATE_TOL = 1e-4
FIT_COEF_TOL = 1e-3      # relative to the largest coefficient of the map
EDGE_TOL = 1e-3          # relative to the edge-state norm
BEAM_AMP_TOL = 1e-3
LC_FREQ_TOL = 1e-4
LC_FREQ_ANY_SEED = 0.01  # the limit cycle is an attractor: kick-independent


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _events(path):
    _, rows = _read_csv(path)
    return [[float(r[0]), r[1]] + [float(v) for v in r[2:]] for r in rows]


def _trajectory(path, n_states):
    _, rows = _read_csv(path)
    a = np.array([[float(v) for v in r[:1 + n_states]] for r in rows])
    return a[:, 0], a[:, 1:]


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _kind_counts(events):
    out = {}
    for ev in events:
        out[ev[1]] = out.get(ev[1], 0) + 1
    return out


def compare_events(got, ref, problems, label):
    """Same kinds in the same order, times and states within tolerance."""
    if [e[1] for e in got] != [e[1] for e in ref]:
        problems.append(f"{label}: event kinds {_kind_counts(got)} != "
                        f"reference {_kind_counts(ref)}")
        return
    for g, r in zip(got, ref):
        if abs(g[0] - r[0]) > EVENT_T_TOL or \
                np.max(np.abs(np.subtract(g[2:], r[2:]))) > STATE_TOL:
            problems.append(f"{label}: {r[1]} event at t={r[0]:.6g} moved to "
                            f"t={g[0]:.6g}")
            return


def compare_state(got, ref, problems, label):
    err = float(np.max(np.abs(np.subtract(got, ref))))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if err > STATE_TOL * scale:
        problems.append(f"{label}: final state differs from reference by {err:.3g}")


class Workload:
    name = ""
    rom_err_label = None

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.exact = seed == REFERENCE_SEED and not smoke
        self.rng = np.random.default_rng(seed)
        os.makedirs(work_dir, exist_ok=True)

    def offset(self, half_width):
        """Seeded perturbation; zero at the reference seed."""
        draw = self.rng.uniform(-half_width, half_width)
        return 0.0 if self.seed == REFERENCE_SEED else float(draw)

    def write_config(self, name, cfg):
        path = os.path.join(self.work_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        return path

    def run_cli(self, tracer, command, name, cfg_path):
        """One CLI command in this process; returns its output directory."""
        out_dir = os.path.join(self.work_dir, name)
        rc = cli.main([command, "--config", cfg_path, "--out-dir", out_dir,
                       "--threads", "1"])
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += _dir_bytes(out_dir)
        if rc != 0:
            raise RuntimeError(f"pwsrom {command} exited with {rc}")
        return out_dir

    @staticmethod
    def attempt(tracer, op, fn, *args):
        """Run one operation; an exception makes it a failed operation."""
        if tracer is not None:
            tracer.op = op
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation must not end the run
            return {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------


class OscFrc(Workload):
    """`pwsrom frc` on one warm-started chunk of the oscillator FRC."""

    name = "osc_frc"
    rom_err_label = "worst ROM-vs-full relative amplitude error"

    def __init__(self, seed, work_dir, smoke=False):
        super().__init__(seed, work_dir, smoke)
        shift = self.offset(0.0025)
        n = 3 if smoke else 16
        self.grid = np.linspace(0.9 + shift, 1.1 + shift, n)
        self.cfg_path = self.write_config("frc", {
            "model": "shaw_pierre", "shaw_pierre": {"delta": 1e-2},
            "frc": {"omega_min": 0.9 + shift, "omega_max": 1.1 + shift,
                    "n_points": n, "eps": 0.15, "chunk": 16, "rtol": 1e-8,
                    "max_periods": 60 if smoke else 400}})

    def iterate(self, tracer, it):
        return self.attempt(tracer, f"it{it}/frc", self._frc, tracer)

    def _frc(self, tracer):
        out_dir = self.run_cli(tracer, "frc", "frc", self.cfg_path)
        _, rows = _read_csv(os.path.join(out_dir, "frc.csv"))
        return {"omega": [float(r[0]) for r in rows],
                "amp_full": [float(r[1]) for r in rows],
                "amp_rom": [float(r[2]) for r in rows],
                "converged_full": [int(r[3]) for r in rows],
                "converged_rom": [int(r[4]) for r in rows]}

    def check(self, out, ref):
        n = len(self.grid)
        if "error" in out:
            return [(f"point{k:02d}", [out["error"]]) for k in range(n)], None
        ops = []
        errs = []
        for k in range(n):
            p = []
            if k >= len(out["omega"]) or abs(out["omega"][k] - self.grid[k]) > 1e-12:
                ops.append((f"point{k:02d}", ["missing or misplaced frequency"]))
                continue
            af, ar = out["amp_full"][k], out["amp_rom"][k]
            if not (out["converged_full"][k] and out["converged_rom"][k]):
                if not self.smoke:
                    p.append(f"not converged at omega={self.grid[k]:.6g}")
            elif np.isfinite(af) and np.isfinite(ar) and af > 0:
                errs.append(_rel(ar, af))
                if errs[-1] > ROM_TOL:
                    p.append(f"ROM off the full model by {errs[-1]:.3%}")
            else:
                p.append("non-finite amplitude")
            if ref is not None and self.exact:
                for key in ("amp_full", "amp_rom"):
                    if not _rel(out[key][k], ref[key][k]) <= FRC_AMP_TOL:
                        p.append(f"{key} {out[key][k]:.6g} vs reference "
                                 f"{ref[key][k]:.6g}")
            ops.append((f"point{k:02d}", p))
        return ops, (max(errs) if errs else None)


# ---------------------------------------------------------------------------


class OscSwitching(Workload):
    """The oscillator pipeline through five CLI commands in one process."""

    name = "osc_switching"
    rom_err_label = "NMTE of the data-driven ROM against the full trajectory"
    COMMANDS = ("fit", "full", "rom_fit", "rom_analytic", "poincare")

    def __init__(self, seed, work_dir, smoke=False):
        super().__init__(seed, work_dir, smoke)
        x0 = np.array([0.5, 0.3, -0.2, 0.1])
        x0 = x0 + np.array([self.offset(0.02) for _ in range(4)])
        self.t_end = 20.0 if smoke else 200.0
        sp = {"delta": 1e-2}
        fit_dir = os.path.join(work_dir, "fit")
        sim = {"x0": x0.tolist(), "t_span": [0.0, self.t_end]}
        self.cfgs = {
            "fit": ("fit", self.write_config("fit", {
                "model": "shaw_pierre", "shaw_pierre": sp,
                "fit": {"order_m": 3 if smoke else 5, "order_r": 3 if smoke else 5,
                        "t_span": [0.0, 10.0 if smoke else 50.0]}})),
            "full": ("simulate", self.write_config("full", {
                "model": "shaw_pierre", "shaw_pierre": sp, "simulate": sim})),
            "rom_fit": ("simulate", self.write_config("rom_fit", {
                "model": "shaw_pierre", "shaw_pierre": sp,
                "simulate": dict(sim, use_rom=True, ic_strategy="min_all_vars",
                                 rom_models={
                                     "plus": os.path.join(fit_dir, "ssm_model_plus.json"),
                                     "minus": os.path.join(fit_dir, "ssm_model_minus.json")})})),
            "rom_analytic": ("simulate", self.write_config("rom_analytic", {
                "model": "shaw_pierre", "shaw_pierre": {"delta": 1e-3},
                "simulate": dict(sim, use_rom=True, ic_strategy="continuity_q1")})),
            "poincare": ("poincare", self.write_config("poincare", {
                "model": "shaw_pierre", "shaw_pierre": sp,
                "seed": int(self.rng.integers(2 ** 31)) if seed != REFERENCE_SEED else 0,
                "poincare": {"t_span": [0.0, 60.0 if smoke else 400.0]}})),
        }

    def iterate(self, tracer, it):
        return {name: self.attempt(tracer, f"it{it}/{name}", self._command,
                                   tracer, name)
                for name in self.COMMANDS}

    def _command(self, tracer, name):
        command, cfg_path = self.cfgs[name]
        d = self.run_cli(tracer, command, name, cfg_path)
        if name == "fit":
            res = {}
            for tag in ("plus", "minus"):
                with open(os.path.join(d, f"ssm_model_{tag}.json")) as fh:
                    m = json.load(fh)
                res[tag] = {"nl": m["nl"], "r": m["r"]}
            return res
        if name == "poincare":
            with open(os.path.join(d, "edges.json")) as fh:
                edges = json.load(fh)
            _, rows = _read_csv(os.path.join(d, "poincare.csv"))
            return {"edges": edges, "n_points": len(rows)}
        rom = name != "full"
        traj = "trajectory_rom.csv" if rom else "trajectory.csv"
        events = "events_rom.csv" if rom else "events.csv"
        t, x = _trajectory(os.path.join(d, traj), 4)
        return {"events": _events(os.path.join(d, events)),
                "final": x[-1].tolist(), "t": t, "x": x}

    def check(self, out, ref):
        ops = []
        rom_err = None
        for name in self.COMMANDS:
            res = out.get(name, {"error": "not run"})
            p = [res["error"]] if "error" in res else []
            if not p:
                getattr(self, f"_check_{name}")(res, ref and ref[name], p, out)
            if name == "rom_fit" and "nmte" in res:
                rom_err = res["nmte"]
            ops.append((name, p))
        return ops, rom_err

    def _check_fit(self, res, ref, p, out):
        # the fit does not depend on the seed, so its reference always applies
        if ref is None:
            return
        for tag in ("plus", "minus"):
            for part in ("nl", "r"):
                got, want = res[tag][part], ref[tag][part]
                if set(got) != set(want):
                    p.append(f"{tag}.{part}: monomials differ from reference")
                    continue
                scale = max(np.max(np.abs(v)) for v in want.values())
                err = max(np.max(np.abs(np.subtract(got[k], want[k]))) for k in want)
                if err > FIT_COEF_TOL * scale:
                    p.append(f"{tag}.{part}: coefficients off by {err:.3g} "
                             f"(scale {scale:.3g})")

    def _check_full(self, res, ref, p, out):
        kinds = _kind_counts(res["events"])
        if not kinds.get("crossing"):
            p.append("full model: no crossings")
        if ref is not None and self.exact:
            compare_events(res["events"], ref["events"], p, "full")
            compare_state(res["final"], ref["final"], p, "full")

    def _check_rom_fit(self, res, ref, p, out):
        full = out.get("full", {})
        if "x" not in full:
            p.append("no full trajectory to compare with")
            return
        grid = np.linspace(0.0, self.t_end, 4001)

        def on_grid(r):
            return np.column_stack([np.interp(grid, r["t"], r["x"][:, j])
                                    for j in range(4)])

        res["nmte"] = sd.nmte_arrays(on_grid(full), on_grid(res))
        if not self.smoke and res["nmte"] > ROM_TOL:
            p.append(f"data-driven ROM NMTE {res['nmte']:.4f} > {ROM_TOL}")
        if not _kind_counts(res["events"]).get("crossing"):
            p.append("data-driven ROM: no crossings")
        if ref is not None and self.exact:
            compare_events(res["events"], ref["events"], p, "rom_fit")
            compare_state(res["final"], ref["final"], p, "rom_fit")

    def _check_rom_analytic(self, res, ref, p, out):
        kinds = _kind_counts(res["events"])
        for kind in ("crossing",) if self.smoke else ("crossing", "stick_entry"):
            if not kinds.get(kind):
                p.append(f"analytic ROM: no {kind} events")
        if ref is not None and self.exact:
            compare_events(res["events"], ref["events"], p, "rom_analytic")
            compare_state(res["final"], ref["final"], p, "rom_analytic")

    def _check_poincare(self, res, ref, p, out):
        if res["n_points"] < 1:
            p.append("return map has no points")
        if ref is None:
            return
        if self.exact and res["n_points"] != ref["n_points"]:
            p.append(f"{res['n_points']} return-map points, reference "
                     f"{ref['n_points']}")
        # the reduced-only edges do not depend on the seed
        keys = (("edge_plus", "edge_minus") if self.exact else ()) + \
            ("reduced_edge_plus", "reduced_edge_minus")
        for k in keys:
            got, want = res["edges"].get(k), ref["edges"].get(k)
            if (got is None) != (want is None):
                p.append(f"{k}: present {got is not None}, reference "
                         f"{want is not None}")
            elif want is not None:
                err = float(np.linalg.norm(np.subtract(got, want)))
                if err > EDGE_TOL * float(np.linalg.norm(want)):
                    p.append(f"{k} moved by {err:.3g}")


# ---------------------------------------------------------------------------


class Beam(Workload):
    """Full beam model only: forced Coulomb periods and the belt limit cycle."""

    name = "beam"

    def __init__(self, seed, work_dir, smoke=False):
        super().__init__(seed, work_dir, smoke)
        self.asm = vkb.assemble_beam()
        w1 = self.asm.natural_frequencies()[0]
        shift = self.offset(0.003)
        self.omegas = [(0.98 + shift) * w1, (1.0 + shift) * w1]
        self.n_periods = 2 if smoke else 20
        self.coulomb = vkb.NonsmoothVariant(
            kind="coulomb",
            delta=vkb.delta_for_normalized(self.asm, "coulomb", 1e-3))
        self.belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
        kick = np.zeros(2 * self.asm.n_dof)
        kick[self.asm.mid_dof_index] = 1e-4 * (1.0 + self.offset(0.2))
        self.belt_x0 = vkb.branch_fixed_point(self.asm, self.belt, "-") + kick
        self.belt_t = 0.2 if smoke else 1.2

    def iterate(self, tracer, it):
        out = {f"coulomb{j}": self.attempt(tracer, f"it{it}/coulomb{j}",
                                           self._coulomb, om)
               for j, om in enumerate(self.omegas)}
        out["belt"] = self.attempt(tracer, f"it{it}/belt", self._belt)
        return out

    def _belt(self):
        asm = self.asm
        opts = IntegratorOptions(rtol=1e-7, atol=1e-10, first_step=1e-6)
        traj = core.integrate_hybrid(vkb.make_beam_system(asm, self.belt),
                                     self.belt_x0, (0.0, self.belt_t), opts)
        cyc = analysis.detect_limit_cycle(traj, coord=asm.mid_dof_index)
        return {"events": _kind_counts([[e.t, e.kind.value] for e in traj.events]),
                "frequency": None if cyc is None else cyc.frequency,
                "amplitude": None if cyc is None else cyc.amplitude}

    def _coulomb(self, omega):
        asm = self.asm
        system = vkb.make_beam_system(asm, self.coulomb,
                                      vkb.mid_forcing(asm, 35e3, omega))
        period = 2 * np.pi / omega
        # criterion 12's integrator options
        opts = IntegratorOptions(rtol=1e-6, atol=1e-9, max_step=period / 64,
                                 first_step=1e-6)
        step, period = analysis.hybrid_period_stepper(
            lambda w: system, omega, asm.mid_dof_index, opts)
        x = np.zeros(2 * asm.n_dof)
        amps = []
        for k in range(self.n_periods):
            x, amp = step(k * period, x)
            amps.append(float(amp))
        return {"amplitudes": amps, "final": x.tolist()}

    def check(self, out, ref):
        ops = []
        for j in range(len(self.omegas)):
            name = f"coulomb{j}"
            res = out.get(name, {"error": "not run"})
            p = [res["error"]] if "error" in res else []
            if not p:
                amps = res["amplitudes"]
                if not (np.all(np.isfinite(amps)) and amps[-1] > 0):
                    p.append("non-finite or zero amplitude")
                if ref is not None and self.exact:
                    want = ref[name]["amplitudes"]
                    bad = [k for k, (a, b) in enumerate(zip(amps, want))
                           if not _rel(a, b) <= BEAM_AMP_TOL]
                    if bad or len(amps) != len(want):
                        p.append(f"period amplitudes differ from reference "
                                 f"from period {bad[0] if bad else len(want)}")
            ops.append((name, p))
        res = out.get("belt", {"error": "not run"})
        p = [res["error"]] if "error" in res else []
        if not p and not self.smoke:
            for kind in ("stick_entry", "stick_exit"):
                if not res["events"].get(kind):
                    p.append(f"belt run: no {kind} events")
            f = res["frequency"]
            if f is None:
                p.append("no limit cycle detected")
            elif ref is not None:
                want = ref["belt"]
                tol = LC_FREQ_TOL if self.exact else LC_FREQ_ANY_SEED
                if _rel(f, want["frequency"]) > tol:
                    p.append(f"limit-cycle frequency {f:.6g} Hz vs "
                             f"reference {want['frequency']:.6g} Hz")
                if self.exact and _rel(res["amplitude"],
                                       want["amplitude"]) > BEAM_AMP_TOL:
                    p.append("limit-cycle amplitude differs from reference")
        ops.append(("belt", p))
        return ops, None


WORKLOADS = {w.name: w for w in (OscFrc, OscSwitching, Beam)}


def reference_view(outputs: dict) -> dict:
    """The part of one iteration's outputs that references.json stores."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k not in ("t", "x")}
        if isinstance(v, np.ndarray):
            return v.tolist()
        return v
    return strip(outputs)
