"""Validation analyses: forced response curves whose points are fixed
points of the period map, found by gated Anderson mixing (one warm-started,
chunked sweep for both models, each point starting from the state and the
mixing history of the one before, each period from the step size of the one
before), return maps on the switching surface with invariant-curve and
edge-point extraction, the reduced-only invariant-curve approximation, limit
cycle detection and response spectra."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (EventKind, IntegratorOptions, _integrate_segment,
                   classify_boundary, integrate_hybrid)
from .rom import (NonsmoothRom, StrategyError, _trace_surface, simulate_rom,
                  surface_pair, switching_value)


# ---------------------------------------------------------------------------
# steady-state forced response


@dataclass
class FrcPoint:
    omega: float
    amplitude: float
    converged: bool
    n_periods: int
    residual: float = np.nan          # final |P(x) - x| / |P(x)|
    state: object = None              # the last period's end state


_GATE = 0.1     # relative residual below which periods are mixed
_DEPTH = 5      # differences the mixing keeps
_TOL = 1e-6     # relative residual of a steady state


class SteadyState(tuple):
    """(amplitude, converged, n_periods, state) of steady_state_amplitude,
    with the final relative residual |P(x) - x| / |P(x)| as `residual` and
    the mixing history it ended with, its last (dx, dg) differences of
    iterates and residuals, as `history`."""

    def __new__(cls, amplitude, converged, n_periods, state, residual,
                history=()):
        self = super().__new__(cls, (amplitude, converged, n_periods, state))
        self.residual = residual
        self.history = history
        return self


def steady_state_amplitude(step_period: Callable, state, period: float,
                           max_periods: int = 500,
                           history: tuple = ()) -> SteadyState:
    """Fixed point of the period map P by gated Anderson mixing.

    step_period(t0, state) must return (P(state), amplitude over the
    period); a state is an array, or a reduced (y, branch) whose y is mixed
    and whose branch is that of the latest P(x). While the residual
    |P(x) - x| is above _GATE |P(x)| plain periods run and the mixing
    history is cleared, so the iterates follow the plain orbit into the
    basin that brute-force periods reach. Below it, Anderson mixing on the
    last _DEPTH differences (Walker & Ni 2011) picks the next state by least
    squares. Once the residual is at most _TOL |P(x)|, one plain guard
    period runs from P(x); the point is accepted if that period's residual
    is at most max(previous residual, _TOL |P^2(x)|), and otherwise the
    history is cleared and the iteration goes on. The reported amplitude
    and state are the guard period's. The guard catches a residual that
    climbs out of tolerance, not an exact landing on an unstable orbit:
    the solver does not check the period map's multipliers.

    `history`, the SteadyState.history of a neighbouring point, starts the
    mixing with that point's differences, so a warm start mixes from its
    first period below the gate; the gate and the guard clear it like any
    other history.
    """
    t, x = 0.0, state
    px, amp, rel = state, np.nan, np.nan
    dX = [dx for dx, _ in history]    # differences of iterates
    dG = [dg for _, dg in history]    # and of residuals
    last = guard = None
    for n in range(1, max_periods + 1):
        px, amp = step_period(t, x)
        t += period
        u, pu = _mixed(x), _mixed(px)
        g = pu - u
        res, scale = np.linalg.norm(g), np.linalg.norm(pu)
        rel = res / scale if scale else (np.inf if res else 0.0)
        if guard is not None and res <= max(guard, _TOL * scale):
            return SteadyState(amp, True, n, px, rel, tuple(zip(dX, dG)))
        if guard is not None or rel > _GATE:
            dX.clear()
            dG.clear()
            last = None
        guard = None
        if rel <= _TOL:
            guard, x = res, px
            continue
        if rel > _GATE:
            x = px
            continue
        if last is not None:
            dX.append(u - last[0])
            dG.append(g - last[1])
            del dX[:-_DEPTH], dG[:-_DEPTH]
        last = u, g
        if dX:
            DX, DG = np.column_stack(dX), np.column_stack(dG)
            gamma = np.linalg.lstsq(DG, g, rcond=None)[0]
            pu = pu - (DX + DG) @ gamma
        x = (pu, px[1]) if isinstance(px, tuple) else pu
    return SteadyState(amp, False, max_periods, px, rel, tuple(zip(dX, dG)))


def _mixed(state):
    """The part of a state that the mixing sees: y of a reduced (y, branch),
    else the whole state, as a float array."""
    return np.asarray(state[0] if isinstance(state, tuple) else state,
                      dtype=float)


def hybrid_period_stepper(make_system, omega: float, amp_index: int,
                          opts: IntegratorOptions):
    """Per-period stepper for the full model at one forcing frequency. Its
    first period starts at opts.first_step, each later one at the step the
    period before would take next."""
    sys = make_system(omega)
    period = 2 * np.pi / omega
    run = opts

    def step(t0, x):
        nonlocal run
        traj = integrate_hybrid(sys, x, (t0, t0 + period), run)
        run = replace(opts, first_step=traj.next_step)
        return traj.x_end, _amplitude(traj, amp_index)

    return step, period


def rom_period_stepper(rom: NonsmoothRom, amp_index: int,
                       opts: IntegratorOptions):
    """Per-period stepper for the switched reduced model, carrying the step
    size from period to period as hybrid_period_stepper does."""
    run = opts

    def step(t0, state):
        nonlocal run
        y, branch = state
        period = 2 * np.pi / rom.model_plus.correction.omega
        traj = simulate_rom(rom, y, branch, (t0, t0 + period), run)
        run = replace(opts, first_step=traj.next_step)
        return _rom_end(traj, branch), _amplitude(traj, amp_index)

    return step


def _amplitude(traj, i):
    """Half the peak-to-peak range of coordinate i over traj, taken from
    each segment's column range."""
    cols = [s.x[:, i] for s in traj.segments]
    hi, lo = np.max([c.max() for c in cols]), np.min([c.min() for c in cols])
    return 0.5 * (hi - lo)


def _rom_end(traj, branch):
    """End (y, branch) of a reduced run from `branch`; a run that ends
    sticking keeps the branch it started on."""
    last = traj.segments[-1]
    return last.y[-1], last.branch if last.branch != "sigma" else branch


def frc_stepper(problem, omega: float, amp: float, opts: IntegratorOptions,
                rom: Optional[dict] = None):
    """(stepper, period) at omega with a maximum step of a 64th period, of
    the full model of `problem` (a pwsrom.problem problem) or, with `rom`
    (keyword arguments of problem.rom), of its reduced model."""
    period = 2 * np.pi / omega
    opts = replace(opts, max_step=period / 64)
    if rom is None:
        return hybrid_period_stepper(lambda w: problem.system(w, amp), omega,
                                     problem.amp_coord, opts)
    return rom_period_stepper(problem.rom(omega, amp, **rom),
                              problem.amp_coord, opts), period


def _frc_chunk(task):
    """Warm-started points of one chunk: each starts from the state and the
    mixing history (SteadyState.history) of the point before. The cold start
    is rest with no history, for the reduced model on problem.rom_branch0
    after problem.rom_ramp periods whose forcing rises in equal steps to
    amp."""
    problem, omegas, amp, opts, max_periods, rom = task
    out, state, history = [], None, ()
    for om in omegas:
        step, period = frc_stepper(problem, om, amp, opts, rom)
        if state is None and rom is None:
            state = np.zeros(problem.dim)
        elif state is None:
            state, n = (np.zeros(2), problem.rom_branch0), problem.rom_ramp
            ramp_opts = replace(opts, max_step=period / 64)
            for k in range(n):
                rom_k = problem.rom(om, amp, scale=(k + 1) / n, **rom)
                traj = simulate_rom(rom_k, *state,
                                    (k * period, (k + 1) * period), ramp_opts)
                state = _rom_end(traj, state[1])
        steady = steady_state_amplitude(step, state, period,
                                        max_periods=max_periods,
                                        history=history)
        a, conv, nper, state = steady
        history = steady.history
        out.append(FrcPoint(om, a, conv, nper, steady.residual, state))
    return out


def frc_sweep(problem, omegas, amp: float, opts: IntegratorOptions,
              chunk: int = 16, threads: int = 1, max_periods: int = 500,
              rom: Optional[dict] = None) -> list:
    """FrcPoints at amplitude amp over `omegas` (frc_stepper), each point
    warm-started from the one before, in chunks of `chunk` points that start
    cold, so `threads` worker processes give the same result as one."""
    omegas = np.asarray(omegas, dtype=float)
    tasks = [(problem, omegas[i:i + chunk].tolist(), amp, opts, max_periods,
              rom) for i in range(0, len(omegas), chunk)]
    if threads > 1:
        # imported only where workers start: the import raised the peak RSS
        # of every single-threaded benchmark process by 0.3-0.7 MB
        from multiprocessing import Pool
        with Pool(threads) as pool:
            parts = pool.map(_frc_chunk, tasks)
    else:
        parts = [_frc_chunk(t) for t in tasks]
    return [p for part in parts for p in part]


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
            d = classify_boundary(sys, ev.x, ev.t).direction
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
    s0, slope = surface_pair(rom, model)(y0, None)
    if abs(s0) <= 1e-7:
        s0 = float(np.dot(slope(), model.reduced_field(0.0, y0)))
    sgn = 1.0 if s0 >= 0 else -1.0
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    seg, hit, _ = _integrate_segment(model.reduced_field, 0.0, y0, t_max,
                                     opts, 0.0, event=lambda t, y: sgn * value(y),
                                     arm_above=1e-7)
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
