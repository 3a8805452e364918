"""Validation analyses: forced response curves by brute-force steady-state
integration, return maps on the switching surface with invariant-curve and
edge-point extraction, the reduced-only invariant-curve approximation, limit
cycle detection and response spectra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (EventKind, IntegratorOptions, _integrate_segment, _Stepper2,
                   integrate_hybrid)
from .rom import (NonsmoothRom, StrategyError, _trace_surface, simulate_rom,
                  switching_value)


# ---------------------------------------------------------------------------
# steady-state forced response


@dataclass
class FrcPoint:
    omega: float
    amplitude: float
    converged: bool
    n_periods: int


def steady_state_amplitude(step_period: Callable, state, period: float,
                           rel_change: float = 1e-3, consecutive: int = 5,
                           max_periods: int = 500):
    """Iterate one-period integrations until the amplitude settles.

    step_period(t0, state) must return (state, amplitude-over-period).
    Convergence: successive-period amplitude change below rel_change for
    `consecutive` periods in a row.
    """
    t = 0.0
    prev = None
    streak = 0
    amp = np.nan
    for k in range(1, max_periods + 1):
        state, amp = step_period(t, state)
        t += period
        if prev is not None and abs(amp - prev) <= rel_change * max(abs(amp), 1e-300):
            streak += 1
            if streak >= consecutive:
                return amp, True, k, state
        else:
            streak = 0
        prev = amp
    return amp, False, max_periods, state


def hybrid_period_stepper(make_system, omega: float, amp_index: int,
                          opts: IntegratorOptions):
    """Per-period stepper for the full model at one forcing frequency."""
    sys = make_system(omega)
    period = 2 * np.pi / omega

    def step(t0, x):
        traj = integrate_hybrid(sys, x, (t0, t0 + period), opts)
        xs = traj.states()[:, amp_index]
        return traj.x_end, 0.5 * (xs.max() - xs.min())

    return step, period


def rom_period_stepper(rom: NonsmoothRom, amp_index: int,
                       opts: IntegratorOptions):
    """Per-period stepper for the switched reduced model."""

    def step(t0, state):
        y, branch = state
        period = 2 * np.pi / rom.model_plus.correction.omega
        traj = simulate_rom(rom, y, branch, (t0, t0 + period), opts)
        xs = traj.states()[:, amp_index]
        last = traj.segments[-1]
        new_branch = last.branch if last.branch != "sigma" else branch
        return (last.y[-1], new_branch), 0.5 * (xs.max() - xs.min())

    return step


# ---------------------------------------------------------------------------
# return map on the switching surface


@dataclass
class PoincareData:
    invariant_points: np.ndarray      # (N, n) post-transient crossing states
    directions: np.ndarray            # (N,) +1 entering sigma>0, -1 entering <0
    edge_plus: Optional[np.ndarray] = None
    edge_minus: Optional[np.ndarray] = None


def poincare_map(sys, ic_set, t_span, margin_fn: Callable[[np.ndarray], float],
                 skip: int = 5, opts: IntegratorOptions | None = None) -> PoincareData:
    """Record surface crossings of full-model trajectories.

    margin_fn measures the distance of a surface state from the sticking
    region boundary (positive outside). The edge states on each side are the
    iterates that follow the minimum-margin crossings, mirroring the
    configurations closest to sticking.
    """
    opts = opts or IntegratorOptions()
    pts = []
    dirs = []
    min_margin = {1: (np.inf, None), -1: (np.inf, None)}
    for ic in ic_set:
        traj = integrate_hybrid(sys, ic, t_span, opts)
        events = [e for e in traj.events if e.kind == EventKind.CROSSING]
        for j, ev in enumerate(events[skip:], skip):
            d = 1 if _cross_dir(sys, ev) > 0 else -1
            pts.append(ev.x.copy())
            dirs.append(d)
            m = margin_fn(ev.x)
            if m < min_margin[d][0] and j + 1 < len(events):
                min_margin[d] = (m, events[j + 1].x.copy())
    inv = np.vstack(pts) if pts else np.empty((0, len(ic_set[0])))
    data = PoincareData(invariant_points=inv, directions=np.asarray(dirs))
    # the iterates of the minimum-margin crossings are the edge points; label
    # them by the sign of the first coordinate (they mirror each other)
    edges = [v[1] for v in min_margin.values() if v[1] is not None]
    for e in edges:
        if e[0] >= 0:
            data.edge_plus = e
        else:
            data.edge_minus = e
    return data


def _cross_dir(sys, ev):
    g = np.asarray(sys.switching.grad_sigma(ev.x))
    return 1.0 if float(g @ sys.f_plus(ev.t, ev.x)) > 0 else -1.0


# ---------------------------------------------------------------------------
# reduced-only invariant curve: surface arcs, centerline and edges


def surface_arc(rom: NonsmoothRom, branch: str, span: float, n: int = 201,
                t: float = 0.0) -> np.ndarray:
    """Points of {sigma(lift(y)) = 0} on one branch, as reduced coordinates.

    Raises StrategyError when the curve cannot be traced over the full span.
    """
    pts = _trace_surface(rom, rom.model(branch), np.zeros(2), t,
                         2.0 * span / n, n // 2)
    if len(pts) < 2 * (n // 2) + 1:
        raise StrategyError(f"surface arc of branch {branch} ends after "
                            f"{len(pts)} of {2 * (n // 2) + 1} points")
    return np.vstack(pts)


def approx_invariant_curve(rom: NonsmoothRom,
                           margin_fn: Callable[[np.ndarray], float],
                           span: float = 0.6, n: int = 401) -> dict:
    """Invariant-curve approximation using the reduced model only.

    Arcs are the branch-manifold intersections with the switching surface,
    as observable states. The centerline averages the two arcs, both viewed
    over the first observable. Each edge estimate intersects the
    opposite-branch arc and the centerline with the sticking boundary,
    averages the two points, projects the result onto the edge's branch
    manifold and advects the reduced dynamics to the next surface hit.
    """
    arcs = {b: rom.model(b).lift_many(surface_arc(rom, b, span, n))
            for b in ("+", "-")}
    # common parametrization over the first observable
    grids = []
    for X in arcs.values():
        order = np.argsort(X[:, 0])
        grids.append((X[order, 0], X[order]))
    lo = max(g[0][0] for g in grids)
    hi = min(g[0][-1] for g in grids)
    s = np.linspace(lo, hi, n)
    interp = []
    for gx, gX in grids:
        cols = [np.interp(s, gx, gX[:, j]) for j in range(gX.shape[1])]
        interp.append(np.column_stack(cols))
    centerline = 0.5 * (interp[0] + interp[1])

    def curve_margin_roots(X):
        m = np.array([margin_fn(x) for x in X])
        roots = []
        for i in range(len(m) - 1):
            if m[i] == 0.0 or (m[i] > 0) != (m[i + 1] > 0):
                w = m[i] / (m[i] - m[i + 1])
                roots.append(X[i] * (1 - w) + X[i + 1] * w)
        return roots

    # crossings happen at extrema of the first observable, so a branch's
    # grazing configuration is its arc's extreme-side boundary root; the
    # advected edge is labeled by that coordinate's sign
    edges = {"+": None, "-": None}
    cand_cen = curve_margin_roots(centerline)
    for from_branch, arc in (("+", interp[0]), ("-", interp[1])):
        cand_arc = curve_margin_roots(arc)
        if not cand_arc or not cand_cen:
            continue
        pick = max if from_branch == "+" else min
        pa = pick(cand_arc, key=lambda p: p[0])
        pc = pick(cand_cen, key=lambda p: p[0])
        mid = 0.5 * (pa + pc)
        to_branch = "-" if from_branch == "+" else "+"
        model = rom.model(to_branch)
        # plain graph projection; the advection then finds the first genuine
        # surface hit (for grazing starts that is the immediate short hop)
        y = model.chart(mid)
        edge = _advect_to_surface(rom, to_branch, y)
        if edge is None:
            continue
        edges["+" if edge[0] >= 0 else "-"] = edge
    return {"arcs": arcs, "edge_plus": edges["+"], "edge_minus": edges["-"]}


def _advect_to_surface(rom, branch, y0, t_max=50.0):
    """First genuine surface hit of one branch's reduced flow.

    The start sits essentially on the surface, so the relevant hit is the
    first sign change of the reconstructed switching value after the state
    has measurably (1e-7) left the surface (grazing starts re-hit almost at
    once). The flow leaves on the side of sigma at the start; within 1e-7 of
    the surface that sign is round-off, and the side is the sign of
    d sigma / dt there instead.
    """
    model = rom.model(branch)
    value = switching_value(rom, model)
    y0 = np.asarray(y0, dtype=float)
    x0 = model.lift(y0)
    s0 = rom.switching.sigma(x0)
    if abs(s0) <= 1e-7:
        s0 = float(np.asarray(rom.switching.grad_sigma(x0))
                   @ model.lift_jacobian(y0) @ model.reduced_field(0.0, y0))
    sgn = 1.0 if s0 >= 0 else -1.0
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    seg, hit = _integrate_segment(model.reduced_field, 0.0, y0, t_max, opts,
                                  0.0, event=lambda t, y: sgn * value(y),
                                  arm_above=1e-7, stepper_class=_Stepper2)
    return model.lift(seg.x[-1]) if hit else None


# ---------------------------------------------------------------------------
# limit cycles and spectra


@dataclass
class LimitCycle:
    period: float
    frequency: float
    amplitude: float
    x_samples: np.ndarray             # (257, n) over the last period


def detect_limit_cycle(traj, coord: int) -> Optional[LimitCycle]:
    """Period from recurrence of stick-exit events on a converged trajectory.

    Uses the last three event intervals, after four settling cycles, and
    returns None unless they agree to 1e-3 relative. The closure requirement
    compares the event states one period apart against 1e-6 times the
    cycle's state-space radius.
    """
    evts = [e for e in traj.events if e.kind == EventKind.STICK_EXIT]
    if len(evts) < 7:
        return None
    times = np.array([e.t for e in evts])
    gaps = np.diff(times)
    tail = gaps[-3:]
    period = float(np.mean(tail))
    if np.max(np.abs(tail - period)) > 1e-3 * period:
        return None
    t1 = times[-1] - period
    grid = np.linspace(t1, times[-1], 257)
    X = traj.sample(grid)
    amp = 0.5 * (X[:, coord].max() - X[:, coord].min())
    # closure from exact event states one period apart; the amplitude scale is
    # the state-space radius of the cycle
    closure = np.linalg.norm(evts[-1].x - evts[-2].x)
    radius = np.linalg.norm(X - X.mean(axis=0), axis=1).max()
    if closure > 1e-6 * max(radius, 1e-300):
        return None
    return LimitCycle(period=period, frequency=1.0 / period, amplitude=amp,
                      x_samples=X)


def spectrum_peaks(t: np.ndarray, x: np.ndarray, n_peaks: int = 4):
    """Dominant cyclic frequencies of a uniformly sampled signal.

    Hann-windowed rFFT with parabolic peak interpolation over the local
    maxima above 1e-4 of the largest; returns peak frequencies sorted by
    descending power.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    dt = t[1] - t[0]
    x = x - x.mean()
    w = np.hanning(len(x))
    Y = np.abs(np.fft.rfft(x * w))
    freqs = np.fft.rfftfreq(len(x), dt)
    pk = []
    thresh = 1e-4 * Y.max()
    for i in range(1, len(Y) - 1):
        if Y[i] > Y[i - 1] and Y[i] >= Y[i + 1] and Y[i] > thresh:
            # parabolic refinement in log amplitude
            a, b, c = np.log(Y[i - 1] + 1e-300), np.log(Y[i] + 1e-300), \
                np.log(Y[i + 1] + 1e-300)
            shift = 0.5 * (a - c) / (a - 2 * b + c)
            pk.append((Y[i], freqs[i] + shift * (freqs[1] - freqs[0])))
    pk.sort(key=lambda p: -p[0])
    return np.array([f for _, f in pk[:n_peaks]])
