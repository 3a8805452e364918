"""Layer tracing from outside the library.

The tracer replaces public pwsrom callables with timing wrappers for the
duration of a traced iteration and puts the originals back afterwards, so the
untraced iterations run the program exactly as shipped. Coarse layers (CLI
commands, FRC points and periods, integrations, ROM runs, fits) record a span
each: name, operation id, parent span, start and end. Hot leaves (polynomial
evaluation, lifts, reduced and physical vector fields) are called hundreds of
thousands of times per iteration, so they only accumulate calls, total time
and self time; a span per call would dominate both memory and the timing.

A layer that a later version of the library removes is skipped, and its
metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

EVENT_KINDS = ("crossing", "stick_entry", "stick_exit", "tangential")

# (module, attribute, layer name, records spans); functions are patched in
# every pwsrom module that imported them by name
FUNCTION_LAYERS = (
    ("pwsrom.cli", "cmd_frc", "cli.frc", True),
    ("pwsrom.cli", "cmd_fit", "cli.fit", True),
    ("pwsrom.cli", "cmd_simulate", "cli.simulate", True),
    ("pwsrom.cli", "cmd_poincare", "cli.poincare", True),
    ("pwsrom.analysis", "poincare_map", "analysis.poincare_map", True),
    ("pwsrom.analysis", "approx_invariant_curve", "analysis.invariant_curve", True),
    ("pwsrom.analysis", "detect_limit_cycle", "analysis.detect_limit_cycle", True),
    ("pwsrom.core", "integrate_hybrid", "core.integrate", True),
    ("pwsrom.rom", "simulate_rom", "rom.simulate", True),
    ("pwsrom.rom", "switch_ic", "rom.switch_ic", True),
    ("pwsrom.ssm_analytic", "build_analytic_model", "ssm_analytic.build", True),
    ("pwsrom.ssm_data", "generate_training", "ssm_data.generate_training", True),
    ("pwsrom.ssm_data", "fit_manifold", "ssm_data.fit_manifold", True),
    ("pwsrom.ssm_data", "fit_dynamics", "ssm_data.fit_dynamics", True),
    ("pwsrom.spectral", "decompose", "spectral.decompose", False),
    ("pwsrom.shaw_pierre", "sp_field", "shaw_pierre.sp_field", False),
    ("pwsrom.vk_beam", "beam_field", "vk_beam.beam_field", False),
)
METHOD_LAYERS = (
    ("pwsrom.poly2", "Poly2", "__call__", "poly2.call"),
    ("pwsrom.ssm_model", "SsmModel", "lift", "ssm_model.lift"),
    ("pwsrom.ssm_model", "SsmModel", "lift_jacobian", "ssm_model.lift_jacobian"),
    ("pwsrom.ssm_model", "SsmModel", "reduced_field", "ssm_model.reduced_field"),
)
FIELD_LAYERS = ("shaw_pierre.sp_field", "vk_beam.beam_field")


class Tracer:
    """Spans, per-layer time and counts for the traced iterations of a run."""

    def __init__(self):
        self.spans = []      # [name, op, parent span index, start_s, end_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = Counter()
        self.op = None
        self.iterations = 0
        self._stack = []     # open calls: [child time, span index]
        self._active = Counter()
        self._patches = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------ wrapping

    def wrap(self, name, fn, span=True, after=None):
        """Time fn as layer `name`; `after(args, result)` sees each result."""
        stats = self.stats[name]
        stack = self._stack
        active = self._active
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = -1
            if span:
                idx = len(spans)
                spans.append([name, self.op, stack[-1][1] if stack else -1,
                              clock() - self._t0, None])
            frame = [0.0, idx if span else (stack[-1][1] if stack else -1)]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[name] -= 1
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    spans[idx][4] = clock() - self._t0
            if after is not None:
                after(args, result)
            return result

        return traced

    def _replace_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("pwsrom"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def install(self):
        """Wrap every layer; calls made until uninstall() are traced."""
        after = {"core.integrate": self._after_integrate,
                 "rom.simulate": self._after_rom}
        for mod_name, attr, name, span in FUNCTION_LAYERS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                continue
            if name in FIELD_LAYERS:
                self._replace_everywhere(fn, self._field_wrapper(name, fn))
            else:
                self._replace_everywhere(
                    fn, self.wrap(name, fn, span=span, after=after.get(name)))
        for mod_name, cls_name, attr, name in METHOD_LAYERS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            setattr(cls, attr, self.wrap(name, original, span=False))
            self._patches.append((cls, attr, original))
        self._install_factories()

    def _install_factories(self):
        analysis = sys.modules.get("pwsrom.analysis")
        periods = {"hybrid_period_stepper": "analysis.full_period",
                   "rom_period_stepper": "analysis.rom_period"}
        for attr, name in periods.items():
            factory = getattr(analysis, attr, None)
            if factory is not None:
                self._replace_everywhere(factory,
                                         self._period_factory(name, factory))
        steady = getattr(analysis, "steady_state_amplitude", None)
        if steady is not None:
            self._replace_everywhere(steady, self._frc_point(steady))
        for mod_name, attr in (("pwsrom.shaw_pierre", "sp_switching"),
                               ("pwsrom.vk_beam", "beam_switching")):
            factory = getattr(sys.modules.get(mod_name), attr, None)
            if factory is not None:
                self._replace_everywhere(factory, self._switching_factory(factory))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ layer hooks

    def _field_wrapper(self, name, fn):
        inner = self.wrap(name, fn, span=False)
        active = self._active
        counts = self.counts

        def field(*args, **kwargs):
            if active["core.integrate"]:
                counts["core.field_evals"] += 1
            return inner(*args, **kwargs)

        return functools.wraps(fn)(field)

    def _switching_factory(self, factory):
        active = self._active
        counts = self.counts

        @functools.wraps(factory)
        def make(*args, **kwargs):
            sw = factory(*args, **kwargs)
            sigma = sw.sigma

            def counted(x):
                if active["core.integrate"]:
                    counts["core.sigma_evals"] += 1
                return sigma(x)

            return type(sw)(sigma=counted, grad_sigma=sw.grad_sigma)

        return make

    def _period_factory(self, name, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            made = factory(*args, **kwargs)
            if isinstance(made, tuple):
                step = self.wrap(name, made[0])
                step.kind = name
                return (step,) + made[1:]
            step = self.wrap(name, made)
            step.kind = name
            return step

        return make

    def _frc_point(self, steady):
        """One FRC point: full and ROM halves at a frequency share an op id."""
        seen = Counter()
        traced = self.wrap("analysis.frc_point", steady)

        @functools.wraps(steady)
        def point(step_period, *args, **kwargs):
            kind = getattr(step_period, "kind", "other")
            outer = self.op
            self.op = f"{outer}/point{seen[(outer, kind)]:02d}"
            seen[(outer, kind)] += 1
            try:
                return traced(step_period, *args, **kwargs)
            finally:
                self.op = outer

        return point

    def _after_integrate(self, args, traj):
        for seg in traj.segments:
            self.counts["core.steps"] += len(seg.t) - 1
        for ev in traj.events:
            self.counts[f"core.events.{ev.kind.value}"] += 1

    def _after_rom(self, args, traj):
        for ev in traj.events:
            self.counts[f"rom.events.{ev.kind.value}"] += 1

    # ------------------------------------------------------------ results

    def metrics(self) -> dict:
        """Per-iteration layer metrics of the traced iterations."""
        n = max(self.iterations, 1)
        st = self.stats
        c = self.counts
        out = {}

        def calls(name):
            return st[name][0] if name in st else 0

        def total(name):
            return st[name][1] if name in st else 0.0

        out["poly2.call_count"] = calls("poly2.call") / n
        out["poly2.call_s"] = total("poly2.call") / n
        for m in ("reduced_field", "lift", "lift_jacobian"):
            out[f"ssm_model.{m}_calls"] = calls(f"ssm_model.{m}") / n
            out[f"ssm_model.{m}_s"] = total(f"ssm_model.{m}") / n
        rom_p, full_p = calls("analysis.rom_period"), calls("analysis.full_period")
        rom_ms = 1e3 * total("analysis.rom_period") / rom_p if rom_p else 0.0
        full_ms = 1e3 * total("analysis.full_period") / full_p if full_p else 0.0
        out["analysis.rom_period_ms"] = rom_ms
        out["analysis.full_period_ms"] = full_ms
        out["analysis.rom_full_cost_ratio"] = rom_ms / full_ms if full_ms else 0.0
        for kind, name in (("full", "analysis.full_period"),
                           ("rom", "analysis.rom_period")):
            ops = {s[1] for s in self.spans if s[0] == name}
            out[f"analysis.periods_per_point_{kind}"] = (
                calls(name) / len(ops) if ops else 0.0)
        out["analysis.poincare_map_s"] = total("analysis.poincare_map") / n
        out["analysis.invariant_curve_s"] = total("analysis.invariant_curve") / n
        out["core.integrate_s"] = total("core.integrate") / n
        out["core.self_s"] = st["core.integrate"][2] / n if "core.integrate" in st else 0.0
        out["core.steps"] = c["core.steps"] / n
        out["core.field_evals_per_step"] = (
            c["core.field_evals"] / c["core.steps"] if c["core.steps"] else 0.0)
        n_events = sum(c[f"core.events.{k}"] for k in EVENT_KINDS)
        for k in EVENT_KINDS:
            out[f"core.events.{k}"] = c[f"core.events.{k}"] / n
        out["core.sigma_evals_per_event"] = (
            c["core.sigma_evals"] / n_events if n_events else 0.0)
        out["shaw_pierre.sp_field_calls"] = calls("shaw_pierre.sp_field") / n
        out["shaw_pierre.sp_field_s"] = total("shaw_pierre.sp_field") / n
        out["vk_beam.beam_field_calls"] = calls("vk_beam.beam_field") / n
        out["vk_beam.beam_field_s"] = total("vk_beam.beam_field") / n
        out["rom.simulate_s"] = total("rom.simulate") / n
        out["rom.switch_ic_calls"] = calls("rom.switch_ic") / n
        out["rom.switch_ic_s"] = total("rom.switch_ic") / n
        for k in EVENT_KINDS:
            out[f"rom.events.{k}"] = c[f"rom.events.{k}"] / n
        out["ssm_analytic.build_calls"] = calls("ssm_analytic.build") / n
        out["ssm_analytic.build_s"] = total("ssm_analytic.build") / n
        for m in ("generate_training", "fit_manifold", "fit_dynamics"):
            out[f"ssm_data.{m}_s"] = total(f"ssm_data.{m}") / n
        out["spectral.decompose_calls"] = calls("spectral.decompose") / n
        out["spectral.decompose_s"] = total("spectral.decompose") / n
        for cmd in ("frc", "fit", "simulate", "poincare"):
            out[f"cli.{cmd}_s"] = total(f"cli.{cmd}") / n
        out["cli.bytes_written"] = c["cli.bytes_written"] / n
        return out

    def layer_table(self) -> list:
        """Rows of (layer, calls, total_s, self_s), largest total first."""
        rows = [(name, s[0], s[1], s[2]) for name, s in self.stats.items() if s[0]]
        return sorted(rows, key=lambda r: -r[2])

    def write(self, path) -> None:
        """Write spans, per-layer totals and counts as one JSON document."""
        doc = {"fields": ["name", "op", "parent", "start_s", "end_s"],
               "spans": self.spans,
               "layers": {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                          for n, s in self.stats.items()},
               "counts": dict(self.counts),
               "iterations": self.iterations}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
