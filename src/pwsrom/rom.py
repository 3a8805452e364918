"""Switched reduced-order model runtime.

Integrates the branch reduced dynamics, monitors the switching function on
reconstructed observables with the same event machinery as the full model,
transfers initial conditions across branches at crossings, and optionally
tracks sticking through an in-surface reduced field.

Every reduced segment runs on the float-pair stepper of pwsrom.core. When the
switching function declares its affine form, the branch event evaluates sigma
precomposed with the lift (SsmModel.affine_switching) instead of lifting the
full state at every step; otherwise it lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (EPS_EVENT, EventKind, HybridTrajectory, IntegratorOptions,
                   SwitchingFunction, _integrate_segment, _Stepper2)
from .ssm_model import SsmModel

IC_STRATEGIES = ("projection", "min_all_vars", "continuity_q1", "continuity_q1q2")


class StrategyError(RuntimeError):
    pass


class RomConfigurationError(RuntimeError):
    pass


@dataclass(frozen=True)
class StickingRule:
    """Hooks for sticking in reduced coordinates.

    condition decides (on reconstructed observables) whether the state is
    inside the sticking region; reduced_field is the in-surface reduced
    dynamics, which returns a pair of Python floats for the float-pair
    stepper, as SsmModel.reduced_field does; exit_branch names the branch
    whose field points away once the condition fails. pin = (index, value),
    when set, holds that observable coordinate at value during sticking, so
    the reconstructed state (the lift with the coordinate pinned) satisfies
    the surface constraint exactly.
    """

    condition: Callable[[float, np.ndarray], bool]                 # (t, x)
    reduced_field: Callable[[float, tuple, SsmModel], tuple]       # (t, y, model)
    exit_branch: Callable[[float, np.ndarray], str]                # (t, x)
    pin: Optional[tuple[int, float]] = None

    def state(self, model: SsmModel, t: float, y) -> np.ndarray:
        """Reconstructed observable state while sticking."""
        x = model.lift(y, t)
        if self.pin is not None:
            x[self.pin[0]] = self.pin[1]
        return x

    def states(self, model: SsmModel, T, Y) -> np.ndarray:
        """Reconstructed states of the rows of Y (N, d) at times T (N,)."""
        X = model.lift_many(Y, T)
        if self.pin is not None:
            X[:, self.pin[0]] = self.pin[1]
        return X


@dataclass
class NonsmoothRom:
    model_plus: SsmModel
    model_minus: SsmModel
    switching: SwitchingFunction
    ic_strategy: str = "projection"
    sticking: Optional[StickingRule] = None
    coord_indices: dict = field(default_factory=lambda: {"q1": 0, "q2": 2})

    def __post_init__(self):
        if self.ic_strategy not in IC_STRATEGIES:
            raise ValueError(f"unknown IC strategy {self.ic_strategy!r}")
        if self.model_plus.dim != self.model_minus.dim:
            raise ValueError("branch models must share observable dimension")

    def model(self, branch: str) -> SsmModel:
        return self.model_plus if branch == "+" else self.model_minus


# ---------------------------------------------------------------------------
# initial-condition matching across the switching surface


def _correct_onto_surface(rom: NonsmoothRom, model: SsmModel, y, t):
    """Newton steps driving sigma(lift(y)) to zero along its reduced gradient."""
    y = np.asarray(y, dtype=float).copy()
    for _ in range(60):
        x = model.lift(y, t)
        g = rom.switching.sigma(x)
        if abs(g) <= 1e-13:
            return y
        gs = np.asarray(rom.switching.grad_sigma(x)) @ model.lift_jacobian(y)
        nrm = float(gs @ gs)
        if nrm < 1e-30:
            raise StrategyError("switching gradient vanishes in the chart")
        y = y - g * gs / nrm
    raise StrategyError("could not project reduced state onto the surface")


def _trace_surface(rom, model, y_start, t, step, n_half):
    """Points of {sigma(lift(y)) = 0} through the projection of y_start,
    n_half arclength steps each way, in order along the curve. A direction
    stops early where the projection fails or the tangent vanishes."""

    def tangent(y):
        x = model.lift(y, t)
        gs = np.asarray(rom.switching.grad_sigma(x)) @ model.lift_jacobian(y)
        tg = np.array([-gs[1], gs[0]])
        nt = np.linalg.norm(tg)
        return tg / nt if nt >= 1e-30 else None

    y0 = _correct_onto_surface(rom, model, y_start, t)
    out = [y0]
    tg0 = tangent(y0)
    if tg0 is None:
        return out
    for direction in (1.0, -1.0):
        y, tg_prev, side = y0, direction * tg0, []
        for _ in range(n_half):
            tg = tangent(y)
            if tg is None:
                break
            if tg @ tg_prev < 0:
                tg = -tg
            try:
                y = _correct_onto_surface(rom, model, y + step * tg, t)
            except StrategyError:
                break
            tg_prev = tg
            side.append(y)
        out = out + side if direction > 0 else side[::-1] + out
    return out


def switch_ic(rom: NonsmoothRom, y_from: np.ndarray, from_branch: str,
              t: float = 0.0, strategy: Optional[str] = None) -> np.ndarray:
    """New reduced initial condition on the opposite branch.

    projection: the affine chart transfer (for shared-basis modal charts this
    is exactly y_to = y_from + W(x0_from - x0_to)). The other strategies
    enforce continuity constraints by constrained search on the target
    manifold.
    """
    strategy = strategy or rom.ic_strategy
    to_branch = "-" if from_branch == "+" else "+"
    m_from = rom.model(from_branch)
    m_to = rom.model(to_branch)
    x_from = m_from.lift(y_from, t)
    y_proj = m_to.chart(x_from)
    if strategy == "projection":
        return y_proj

    if strategy == "continuity_q1q2":
        idx = [rom.coord_indices["q1"], rom.coord_indices["q2"]]
        target = x_from[idx]
        y = y_proj.copy()
        for _ in range(80):
            r = m_to.lift(y, t)[idx] - target
            if np.linalg.norm(r) < 1e-12:
                return y
            J = m_to.lift_jacobian(y)[idx, :]
            try:
                y = y - np.linalg.solve(J, r)
            except np.linalg.LinAlgError as exc:
                raise StrategyError("singular continuity system") from exc
        raise StrategyError("continuity_q1q2 did not converge")

    # remaining strategies search along the surface curve on the target model
    span = 2.0 * max(np.linalg.norm(y_proj), 0.2)
    cand = _trace_surface(rom, m_to, y_proj, t, span / 60, 60)
    if strategy == "min_all_vars":
        def objective(y):
            return float(np.linalg.norm(m_to.lift(y, t) - x_from))
    elif strategy == "continuity_q1":
        iq1 = rom.coord_indices["q1"]

        def objective(y):
            return abs(m_to.lift(y, t)[iq1] - x_from[iq1])
    else:
        raise ValueError(strategy)
    vals = [objective(y) for y in cand]
    order = int(np.argmin(vals))
    y_best = cand[order]
    # golden-section refinement along the local tangent
    x = m_to.lift(y_best, t)
    gs = np.asarray(rom.switching.grad_sigma(x)) @ m_to.lift_jacobian(y_best)
    tang = np.array([-gs[1], gs[0]])
    tang /= np.linalg.norm(tang)
    a, b = -span / 50.0, span / 50.0
    phi = 0.5 * (np.sqrt(5.0) - 1.0)

    def f_line(s):
        return objective(_correct_onto_surface(rom, m_to, y_best + s * tang, t))

    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f_line(c), f_line(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f_line(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f_line(d)
    s_best = 0.5 * (a + b)
    y = _correct_onto_surface(rom, m_to, y_best + s_best * tang, t)
    if strategy == "continuity_q1" and objective(y) > 1e-8:
        raise StrategyError("continuity_q1 could not match the coordinate on "
                            "the surface")
    return y


# ---------------------------------------------------------------------------
# switched reduced simulation


def simulate_rom(rom: NonsmoothRom, y0, branch0: str, t_span,
                 opts: IntegratorOptions | None = None) -> HybridTrajectory:
    """Run the switched reduced model over t_span.

    Crossings of the reconstructed switching function are located by the
    event kernel of pwsrom.core; the configured IC strategy transfers the
    reduced state to the other branch. When a sticking rule is present and its condition holds at
    a surface hit, the in-surface reduced field runs until the condition
    releases, then integration resumes on the exit branch.
    """
    opts = opts or IntegratorOptions()
    traj = HybridTrajectory()
    t0, t_end = float(t_span[0]), float(t_span[1])
    t = t0
    y = np.asarray(y0, dtype=float).copy()
    branch = branch0
    mode = "branch"
    if rom.sticking is not None:
        model0 = rom.model(branch)
        if (abs(rom.switching.sigma(model0.lift(y, t0))) < 1e-6
                and rom.sticking.condition(t0, rom.sticking.state(model0, t0, y))):
            mode = "sticking"
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        run = _rom_branch_segment if mode == "branch" else _rom_sticking_segment
        t, y, branch, mode = run(rom, branch, t, y, t_end, opts, t0, traj)
    return traj


def switching_value(rom: NonsmoothRom, model: SsmModel):
    """sigma(lift(y, t)) as a function value(y, t=None) of a reduced state:
    precomposed when the switching function is affine, else by lifting."""
    if rom.switching.affine is not None:
        return model.affine_switching(*rom.switching.affine)
    sigma = rom.switching.sigma

    def value(y, t=None):
        return sigma(model.lift(y, t))

    return value


def _rom_branch_segment(rom, branch, t0, y0, t_end, opts, t_grid0, traj):
    model = rom.model(branch)
    sgn = 1.0 if branch == "+" else -1.0
    value = switching_value(rom, model)
    seg, hit = _integrate_segment(
        model.reduced_field, t0, y0, t_end, opts, t_grid0,
        event=lambda t, y: sgn * value(y, t),
        arm_above=10 * EPS_EVENT, observe=lambda T, Y: model.lift_many(Y, T),
        stepper_class=_Stepper2)
    seg.branch = branch
    traj.segments.append(seg)
    t_ev, y_ev, x_ev = seg.t[-1], seg.y[-1], seg.x[-1]
    if not hit:
        return t_ev, y_ev, branch, "branch"
    if rom.sticking is not None and rom.sticking.condition(t_ev, x_ev):
        traj.add_event(t_ev, x_ev, EventKind.STICK_ENTRY, opts.max_events)
        return t_ev, y_ev, branch, "sticking"
    traj.add_event(t_ev, x_ev, EventKind.CROSSING, opts.max_events)
    new_branch = "-" if branch == "+" else "+"
    return t_ev, switch_ic(rom, y_ev, branch, t_ev), new_branch, "branch"


def _rom_sticking_segment(rom, branch, t0, y0, t_end, opts, t_grid0, traj):
    rule = rom.sticking
    model = rom.model(branch)

    def f_slide(t, y):
        return rule.reduced_field(t, y, model)

    _validate_sticking_chart(rom, model, f_slide, t0, y0)
    # the boolean release condition as a +-1 event: the bisection brackets
    # the release time to the time resolution
    seg, hit = _integrate_segment(
        f_slide, t0, y0, t_end, opts, t_grid0,
        event=lambda t, y: 1.0 if rule.condition(t, rule.state(model, t, y)) else -1.0,
        observe=lambda T, Y: rule.states(model, T, Y),
        stepper_class=_Stepper2)
    seg.branch = "sigma"
    traj.segments.append(seg)
    t_ev, y_ev, x_ev = seg.t[-1], seg.y[-1], seg.x[-1]
    if not hit:
        return t_ev, y_ev, branch, "sticking"
    traj.add_event(t_ev, x_ev, EventKind.STICK_EXIT, opts.max_events)
    return t_ev, y_ev, rule.exit_branch(t_ev, x_ev), "branch"


def _validate_sticking_chart(rom, model, f_slide, t, y):
    """The in-surface reduced field must keep the switching value stationary.

    Drift is measured on the raw lift, so pinning the reconstruction cannot
    mask a chart that is unable to hold the constraint.
    """
    y = np.asarray(y, dtype=float)
    dy = np.asarray(f_slide(t, y))
    h = 1e-7
    s0 = rom.switching.sigma(model.lift(y, t))
    s1 = rom.switching.sigma(model.lift(y + h * dy, t + h))
    drift = abs(s1 - s0) / h
    scale = 1.0 + float(np.linalg.norm(dy))
    if drift > 0.15 * scale:
        raise RomConfigurationError(
            "the chart cannot express the sticking constraint (switching value "
            "drifts under the in-surface reduced field); rechart onto "
            "coordinates containing the switching variable")


# ---------------------------------------------------------------------------
# factory for the friction-oscillator reduced model


def make_sp_rom(params, order: int = 3,
                ic_strategy: str = "projection") -> NonsmoothRom:
    """Switched reduced model of the friction oscillator on its two slow SSMs.

    Sticking uses the in-surface dynamics (mass 1 pinned) projected through
    the shared modal chart; the reconstruction pins dq1 to zero exactly.
    """
    from .shaw_pierre import (sp_elastic_term, sp_sliding_field, sp_switching,
                              sp_sticking_test)
    from .ssm_analytic import build_analytic_model

    model_p = build_analytic_model(params, "+", order=order,
                                   eps=params.eps, omega=params.omega)
    model_m = build_analytic_model(params, "-", order=order,
                                   eps=params.eps, omega=params.omega)

    def condition(t, x):
        return sp_sticking_test(params, x, t)

    def reduced_field(t, y, model):
        x = model.lift(y, t)
        x[1] = 0.0
        return tuple((model.chart_w @ sp_sliding_field(params, t, x)).tolist())

    def exit_branch(t, x):
        e = sp_elastic_term(params, x)
        if params.eps:
            e += params.eps * np.cos(params.omega * t) / (np.sqrt(2.0) * params.m1)
        return "+" if e > 0 else "-"

    sticking = StickingRule(condition=condition, reduced_field=reduced_field,
                            exit_branch=exit_branch, pin=(1, 0.0))
    return NonsmoothRom(model_plus=model_p, model_minus=model_m,
                        switching=sp_switching(), ic_strategy=ic_strategy,
                        sticking=sticking)
