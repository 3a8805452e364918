"""Switched reduced-order model runtime.

Integrates the branch reduced dynamics, monitors the switching function on
reconstructed observables with the same event machinery as the full model,
transfers initial conditions across branches at crossings, and optionally
sticks, slides and releases by the full system's Filippov field evaluated at
the reconstructed state, with the calls core makes for the full model.

The ROM's switching surface is one coordinate at one level, declared once
per model (shaw_pierre.SP_SURFACE, vk_beam.beam_surface) and held as
NonsmoothRom.surface = (index, level): sigma(x) = x[index] - level. Every
reduced segment runs on core's float stepper of length 2, and the branch
event evaluates sigma precomposed with the lift (SsmModel.lift_component,
equal to sigma(lift(y, t)) to the bit), so it never lifts the full state.

The IC transfer's surface search (Newton onto the surface, tracing the
surface curve, scoring candidates and the golden-section refinement) runs
once, on float pairs. It takes that value and its y-gradient
(SsmModel.component_slope) from surface_pair. The objectives compare lift
components in floats too. The search's public helpers still return ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (EPS_EVENT, BoundaryKind, EventKind, HybridTrajectory,
                   IntegratorOptions, PiecewiseSmoothSystem,
                   _integrate_segment, classify_boundary, filippov_field)
from .ssm_model import SsmModel

IC_STRATEGIES = ("projection", "min_all_vars", "continuity_q1", "continuity_q1q2")


class StrategyError(RuntimeError):
    pass


class RomConfigurationError(RuntimeError):
    pass


@dataclass
class NonsmoothRom:
    """Two branch models switched at surface = (index, level).

    sticking, when set, is the full system whose Filippov convention the
    reduced state follows at its pinned reconstruction: the lift with
    observable index held at level, which puts it on the surface exactly. A
    surface hit sticks where classify_boundary finds attracting sliding
    there; while sticking, the reduced field is chart_w applied to the
    Filippov field, and the model releases where the Filippov coefficient
    lambda reaches +-1, onto the branch of its sign, as core's sliding
    segments do.
    """

    model_plus: SsmModel
    model_minus: SsmModel
    surface: tuple[int, float]
    ic_strategy: str = "projection"
    sticking: Optional[PiecewiseSmoothSystem] = None
    coord_indices: dict = field(default_factory=lambda: {"q1": 0, "q2": 2})

    def __post_init__(self):
        if self.ic_strategy not in IC_STRATEGIES:
            raise ValueError(f"unknown IC strategy {self.ic_strategy!r}")
        if self.model_plus.dim != self.model_minus.dim:
            raise ValueError("branch models must share observable dimension")

    def model(self, branch: str) -> SsmModel:
        return self.model_plus if branch == "+" else self.model_minus

    def pinned_state(self, model: SsmModel, t: float, y) -> np.ndarray:
        """Reconstructed observable state while sticking."""
        x = model.lift(y, t)
        x[self.surface[0]] = self.surface[1]
        return x

    def pinned_states(self, model: SsmModel, T, Y) -> np.ndarray:
        """Reconstructed states of the rows of Y (N, d) at times T (N,)."""
        X = model.lift_many(Y, T)
        X[:, self.surface[0]] = self.surface[1]
        return X

    def sticks(self, model: SsmModel, t: float, y) -> bool:
        """Whether the full system slides (attracting) at the reconstruction."""
        cls = classify_boundary(self.sticking, self.pinned_state(model, t, y), t)
        return cls.kind == BoundaryKind.ATTRACTING_SLIDING

    def sliding(self, model: SsmModel, t: float, y) -> tuple[float, tuple]:
        """lambda and the in-surface reduced field (a pair of Python floats for
        the float stepper) at the reconstruction."""
        lam, f_sigma = filippov_field(self.sticking,
                                      self.pinned_state(model, t, y), t)
        return lam, tuple((model.chart_w @ f_sigma).tolist())


# ---------------------------------------------------------------------------
# initial-condition matching across the switching surface


def _correct_onto_surface(rom: NonsmoothRom, model: SsmModel, y, t):
    """Newton steps driving sigma(lift(y)) to zero along its reduced gradient."""
    return np.array(_newton(surface_pair(rom, model), y, t)[0])


def _newton(pair, y, t):
    """_correct_onto_surface on a float pair y with pair = surface_pair(...):
    the corrected pair and the slope() of pair there."""
    y1, y2 = float(y[0]), float(y[1])
    for _ in range(60):
        v, slope = pair((y1, y2), t)
        if abs(v) <= 1e-13:
            return (y1, y2), slope
        s1, s2 = slope()
        nrm = s1 * s1 + s2 * s2
        if nrm < 1e-30:
            raise StrategyError("switching gradient vanishes in the chart")
        y1, y2 = y1 - v * s1 / nrm, y2 - v * s2 / nrm
    raise StrategyError("could not project reduced state onto the surface")


def _unit_tangent(slope):
    """The unit tangent (-s2, s1) / |s| of the surface curve at a slope()."""
    s1, s2 = slope()
    nt = math.sqrt(s2 * s2 + s1 * s1)
    if nt < 1e-30:
        raise StrategyError("switching gradient vanishes in the chart")
    return -s2 / nt, s1 / nt


def _trace_surface(rom, model, y_start, t, step, n_half):
    """Points of {sigma(lift(y)) = 0} through the projection of y_start,
    n_half arclength steps each way, in order along the curve. A direction
    stops early where the projection fails or the tangent vanishes."""
    return [np.array(y) for y, _ in
            _trace(surface_pair(rom, model), y_start, t, step, n_half)]


def _trace(pair, y_start, t, step, n_half):
    """_trace_surface on float pairs: the points and the slope() at each."""
    y0, slope0 = _newton(pair, y_start, t)
    out = [(y0, slope0)]
    try:
        tg0 = _unit_tangent(slope0)
    except StrategyError:
        return out
    for direction in (1.0, -1.0):
        (y1, y2), slope, side = y0, slope0, []
        p1, p2 = direction * tg0[0], direction * tg0[1]
        for _ in range(n_half):
            try:
                tg1, tg2 = _unit_tangent(slope)
                if tg1 * p1 + tg2 * p2 < 0:
                    tg1, tg2 = -tg1, -tg2
                (y1, y2), slope = _newton(pair, (y1 + step * tg1, y2 + step * tg2), t)
            except StrategyError:
                break
            p1, p2 = tg1, tg2
            side.append(((y1, y2), slope))
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

    # remaining strategies search along the surface curve on the target
    # model, in floats: the lift components they compare come from
    # SsmModel.lift_component, equal to the lift to the bit
    if strategy == "min_all_vars":
        parts = [(m_to.lift_component(i), xi) for i, xi in enumerate(x_from.tolist())]

        def objective(y):
            return math.hypot(*[lift_i(y, t) - xi for lift_i, xi in parts])
    elif strategy == "continuity_q1":
        iq1 = rom.coord_indices["q1"]
        lift_q1, x_q1 = m_to.lift_component(iq1), float(x_from[iq1])

        def objective(y):
            return abs(lift_q1(y, t) - x_q1)
    else:
        raise ValueError(strategy)
    pair = surface_pair(rom, m_to)
    span = 2.0 * max(np.linalg.norm(y_proj), 0.2)
    cand = _trace(pair, y_proj, t, span / 60, 60)
    vals = [objective(y) for y, _ in cand]
    (b1, b2), slope = cand[vals.index(min(vals))]
    # golden-section refinement along the local tangent
    tg1, tg2 = _unit_tangent(slope)
    a, b = -span / 50.0, span / 50.0
    phi = 0.5 * (math.sqrt(5.0) - 1.0)

    def on_line(s):
        return _newton(pair, (b1 + s * tg1, b2 + s * tg2), t)[0]

    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = objective(on_line(c)), objective(on_line(d))
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(on_line(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(on_line(d))
    y = on_line(0.5 * (a + b))
    if strategy == "continuity_q1" and objective(y) > 1e-8:
        raise StrategyError("continuity_q1 could not match the coordinate on "
                            "the surface")
    return np.array(y)


# ---------------------------------------------------------------------------
# switched reduced simulation


def simulate_rom(rom: NonsmoothRom, y0, branch0: str, t_span,
                 opts: IntegratorOptions | None = None) -> HybridTrajectory:
    """Run the switched reduced model over t_span.

    Crossings of the reconstructed switching function are located by the
    event kernel of pwsrom.core; the configured IC strategy transfers the
    reduced state to the other branch. When the ROM has a sticking system and
    the full system slides at the reconstructed surface hit, the in-surface
    reduced field runs until lambda reaches +-1, then integration resumes on
    the branch of its sign.
    """
    opts = opts or IntegratorOptions()
    traj = HybridTrajectory()
    t0, t_end = float(t_span[0]), float(t_span[1])
    t = t0
    y = np.asarray(y0, dtype=float).copy()
    branch = branch0
    mode, h = "branch", None
    if rom.sticking is not None:
        model0 = rom.model(branch)
        if (abs(switching_value(rom, model0)(y, t0)) < 1e-6
                and rom.sticks(model0, t0, y)):
            mode = "sticking"
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        run = _rom_branch_segment if mode == "branch" else _rom_sticking_segment
        t, y, branch, mode, h = run(rom, branch, t, y, t_end, opts, t0, traj, h)
    traj.next_step = h
    return traj


def switching_value(rom: NonsmoothRom, model: SsmModel):
    """sigma(lift(y, t)) as a function value(y, t=None) of a reduced state,
    precomposed with the lift."""
    return model.lift_component(*rom.surface)


def surface_pair(rom: NonsmoothRom, model: SsmModel):
    """sigma(lift(y, t)) and its y-gradient at a reduced pair y, as a
    function pair(y, t) -> (value, slope) whose slope() returns the gradient
    as a float pair, computed only when asked."""
    value = switching_value(rom, model)
    grad = model.component_slope(rom.surface[0])

    def pair(y, t):
        return value(y, t), lambda: grad(None, *y)

    return pair


def _rom_branch_segment(rom, branch, t0, y0, t_end, opts, t_grid0, traj, h):
    model = rom.model(branch)
    sgn = 1.0 if branch == "+" else -1.0
    value = switching_value(rom, model)
    seg, hit, h = _integrate_segment(
        model.reduced_field, t0, y0, t_end, opts, t_grid0,
        event=lambda t, y: sgn * value(y, t), arm_above=10 * EPS_EVENT,
        observe=lambda T, Y: model.lift_many(Y, T), h=h)
    seg.branch = branch
    traj.segments.append(seg)
    t_ev, y_ev, x_ev = seg.t[-1], seg.y[-1], seg.x[-1]
    if not hit:
        return t_ev, y_ev, branch, "branch", h
    if rom.sticking is not None and rom.sticks(model, t_ev, y_ev):
        traj.add_event(t_ev, x_ev, EventKind.STICK_ENTRY)
        return t_ev, y_ev, branch, "sticking", h
    traj.add_event(t_ev, x_ev, EventKind.CROSSING)
    new_branch = "-" if branch == "+" else "+"
    return t_ev, switch_ic(rom, y_ev, branch, t_ev), new_branch, "branch", h


def _rom_sticking_segment(rom, branch, t0, y0, t_end, opts, t_grid0, traj, h):
    model = rom.model(branch)

    def f_slide(t, y):
        return rom.sliding(model, t, y)[1]

    def lam_margin(t, y):
        # sticking ends where |lambda| reaches 1
        lam = rom.sliding(model, t, y)[0]
        return 1.0 - lam * lam

    _validate_sticking_chart(rom, model, f_slide, t0, y0)
    seg, hit, h = _integrate_segment(
        f_slide, t0, y0, t_end, opts, t_grid0, event=lam_margin, eps=1e-12,
        observe=lambda T, Y: rom.pinned_states(model, T, Y), h=h)
    seg.branch = "sigma"
    traj.segments.append(seg)
    t_ev, y_ev, x_ev = seg.t[-1], seg.y[-1], seg.x[-1]
    if not hit:
        return t_ev, y_ev, branch, "sticking", h
    traj.add_event(t_ev, x_ev, EventKind.STICK_EXIT)
    lam = rom.sliding(model, t_ev, y_ev)[0]
    return t_ev, y_ev, ("+" if lam > 0 else "-"), "branch", h


def _validate_sticking_chart(rom, model, f_slide, t, y):
    """The in-surface reduced field must keep the switching value stationary.

    Drift is measured on the raw lift, so pinning the reconstruction cannot
    mask a chart that is unable to hold the constraint.
    """
    y = np.asarray(y, dtype=float)
    dy = np.asarray(f_slide(t, y))
    h = 1e-7
    value = switching_value(rom, model)
    s0, s1 = value(y, t), value(y + h * dy, t + h)
    drift = abs(s1 - s0) / h
    scale = 1.0 + float(np.linalg.norm(dy))
    if drift > 0.15 * scale:
        raise RomConfigurationError(
            "the chart cannot express the sticking constraint (switching value "
            "drifts under the in-surface reduced field); rechart onto "
            "coordinates containing the switching variable")
