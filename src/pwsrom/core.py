"""Piecewise-smooth systems: switching-surface classification, the Filippov
sliding field, and event-driven hybrid integration.

Vector fields have signature f(t, x) -> ndarray and must be smooth extensions
valid on both sides of the switching surface. Integration uses an embedded
Dormand-Prince 5(4) pair with dense output. One kernel, _integrate_segment,
runs a smooth field until an armed scalar event function turns negative and
bisects the event on the continuous extension (to |sigma| <= EPS_EVENT for
surface hits). Branch segments, Filippov sliding and the switched reduced
model (pwsrom.rom, pwsrom.analysis) all run through it and record into one
trajectory type, HybridTrajectory.

There are two steppers with one tableau, step control, FSAL and quartic
dense output. _Stepper runs full states on numpy stages: a step costs
mostly per-call overhead on these small states, so it keeps its stages in
two preallocated buffers that swap on acceptance (no copies), uses
Python-float scalars, and records accepted states without copying them. Its
arithmetic and matrix products are those of a stepper with one buffer and
copies, so the results are the same to the bit. _Stepper2 runs the
two-coordinate reduced states as one pair of Python floats, with the stages
unrolled and summed left to right; its stage sums do not go through BLAS,
so it agrees with _Stepper to round-off, not to the bit. _integrate_segment
takes the stepper class and runs the same event and record loop for both.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

EPS_EVENT = 1e-10          # absolute tolerance on sigma at reported events
TANGENTIAL_WINDOW = 1e-9   # |grad sigma . f| below this (scaled) is tangential
MAX_EVENTS = 10_000        # chattering guard


class RepellingSlidingError(RuntimeError):
    """Forward simulation refused at a repelling sliding point."""

    def __init__(self, t, x):
        super().__init__(f"repelling sliding encountered at t={t:.6g}; forward "
                         "solution is non-unique")
        self.t = t
        self.x = np.asarray(x)


class StiffnessError(RuntimeError):
    pass


class ChatteringError(RuntimeError):
    pass


class DegenerateDenominatorError(RuntimeError):
    pass


@dataclass(frozen=True)
class SwitchingFunction:
    """Scalar switching function sigma and its gradient.

    affine = (g, c), when set, declares sigma(x) = g . x + c, which lets the
    reduced model precompose sigma with its lift (SsmModel.affine_switching).
    """

    sigma: Callable[[np.ndarray], float]
    grad_sigma: Callable[[np.ndarray], np.ndarray]
    affine: Optional[tuple[np.ndarray, float]] = None


@dataclass(frozen=True)
class PiecewiseSmoothSystem:
    """Two smooth vector fields separated by the zero set of sigma.

    f_plus governs sigma > 0, f_minus governs sigma < 0; both must evaluate on
    either side of the surface. Immutable and safe to share across
    concurrently running integrations.
    """

    dim: int
    f_plus: Callable[[float, np.ndarray], np.ndarray]
    f_minus: Callable[[float, np.ndarray], np.ndarray]
    switching: SwitchingFunction
    delta: float = 0.0


class BoundaryKind(Enum):
    CROSSING = "crossing"
    ATTRACTING_SLIDING = "attracting_sliding"
    REPELLING_SLIDING = "repelling_sliding"
    TANGENTIAL = "tangential"


@dataclass(frozen=True)
class BoundaryClassification:
    kind: BoundaryKind
    a_plus: float
    a_minus: float

    @property
    def direction(self) -> int:
        """Crossing direction: +1 toward sigma > 0, -1 toward sigma < 0."""
        return 1 if self.a_plus > 0 else -1


def classify_boundary(sys: PiecewiseSmoothSystem, x: np.ndarray,
                      t: float = 0.0) -> BoundaryClassification:
    """Classify the boundary behavior at a state on the switching surface.

    Crossing when both normal components share a sign, sliding when they
    oppose (attracting iff the fields point toward the surface), tangential
    when either component vanishes within the scaled window.
    """
    x = np.asarray(x, dtype=float)
    if abs(sys.switching.sigma(x)) > EPS_EVENT * 100:
        raise ValueError("state is not on the switching surface within tolerance")
    g = np.asarray(sys.switching.grad_sigma(x), dtype=float)
    fp = sys.f_plus(t, x)
    fm = sys.f_minus(t, x)
    a_plus = float(g @ fp)
    a_minus = float(g @ fm)
    wp = TANGENTIAL_WINDOW * (1.0 + np.linalg.norm(fp))
    wm = TANGENTIAL_WINDOW * (1.0 + np.linalg.norm(fm))
    if abs(a_plus) < wp or abs(a_minus) < wm:
        kind = BoundaryKind.TANGENTIAL
    elif a_plus * a_minus > 0.0:
        kind = BoundaryKind.CROSSING
    elif a_plus < 0.0 < a_minus:
        kind = BoundaryKind.ATTRACTING_SLIDING
    else:
        kind = BoundaryKind.REPELLING_SLIDING
    return BoundaryClassification(kind=kind, a_plus=a_plus, a_minus=a_minus)


def filippov_field(sys: PiecewiseSmoothSystem, x: np.ndarray,
                   t: float = 0.0) -> tuple[float, np.ndarray]:
    """Convex-combination sliding field tangent to the switching surface.

    Returns (lambda_sigma, f_sigma) with lambda_sigma in (-1, 1) on attracting
    sliding states and grad_sigma . f_sigma = 0 by construction.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(sys.switching.grad_sigma(x), dtype=float)
    fp = sys.f_plus(t, x)
    fm = sys.f_minus(t, x)
    a_plus = float(g @ fp)
    a_minus = float(g @ fm)
    den = a_minus - a_plus
    scale = 1.0 + abs(a_plus) + abs(a_minus)
    if abs(den) < 1e-14 * scale:
        raise DegenerateDenominatorError(
            "(f_minus - f_plus) . grad_sigma vanishes; sliding field undefined")
    lam = (a_minus + a_plus) / den
    f_sigma = (a_minus * fp - a_plus * fm) / den
    return lam, f_sigma


class EventKind(Enum):
    CROSSING = "crossing"
    STICK_ENTRY = "stick_entry"
    STICK_EXIT = "stick_exit"
    TANGENTIAL = "tangential"


@dataclass
class Segment:
    branch: str                 # '+', '-', or 'sigma'
    t: np.ndarray
    x: np.ndarray               # shape (len(t), dim)
    y: Optional[np.ndarray] = None   # reduced coordinates of a ROM segment


@dataclass
class Event:
    t: float
    x: np.ndarray
    kind: EventKind


@dataclass
class HybridTrajectory:
    """Piecewise-smooth trajectory: smooth segments joined by typed events."""

    segments: list[Segment] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def t_end(self) -> float:
        return self.segments[-1].t[-1] if self.segments else np.nan

    @property
    def x_end(self) -> np.ndarray:
        return self.segments[-1].x[-1]

    def times(self) -> np.ndarray:
        return np.concatenate([s.t for s in self.segments])

    def add_event(self, t, x, kind, max_events: int) -> None:
        """Append an event; more than max_events raise ChatteringError."""
        self.events.append(Event(t=t, x=np.asarray(x).copy(), kind=kind))
        if len(self.events) > max_events:
            raise ChatteringError(
                f"more than {max_events} events in one time span")

    def states(self) -> np.ndarray:
        return np.vstack([s.x for s in self.segments])

    def sample(self, t_grid: np.ndarray) -> np.ndarray:
        """Linear-in-segment resampling onto an arbitrary time grid."""
        t_all = self.times()
        x_all = self.states()
        order = np.argsort(t_all, kind="stable")
        t_all = t_all[order]
        x_all = x_all[order]
        out = np.empty((len(t_grid), x_all.shape[1]))
        for j in range(x_all.shape[1]):
            out[:, j] = np.interp(t_grid, t_all, x_all[:, j])
        return out

    def write_csv(self, path, events_path=None, dim: int | None = None) -> None:
        """Columns t, x1..xn, branch (then xi1..xid for reduced segments);
        events sidecar t_event, kind, x1..xn."""
        n = self.states().shape[1] if self.segments else int(dim or 0)
        reduced = bool(self.segments) and self.segments[0].y is not None
        d = self.segments[0].y.shape[1] if reduced else 0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t"] + [f"x{i+1}" for i in range(n)] + ["branch"]
                       + [f"xi{i+1}" for i in range(d)])
            code = {"+": 1, "-": -1, "sigma": 0}
            for seg in self.segments:
                for i, ti in enumerate(seg.t):
                    row = ([repr(float(ti))] + [repr(float(v)) for v in seg.x[i]]
                           + [code[seg.branch]])
                    if reduced:
                        row += [repr(float(v)) for v in seg.y[i]]
                    w.writerow(row)
        if events_path is not None:
            with open(events_path, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["t_event", "kind"] + [f"x{i+1}" for i in range(n)])
                for ev in self.events:
                    w.writerow([repr(float(ev.t)), ev.kind.value]
                               + [repr(float(v)) for v in ev.x])


@dataclass
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-11
    max_step: float = np.inf
    first_step: float = 1e-4
    max_events: int = MAX_EVENTS
    t_eval_dt: Optional[float] = None   # also sample t_span[0] + k * t_eval_dt
    record_steps: bool = True
    min_step: float = 1e-14


# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)     # Python floats: scalar nodes
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# quartic dense-output weights (as in the classic DOPRI5 interpolant)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class _Stepper:
    """Adaptive DP5(4) stepper with quartic dense output for one smooth field.

    The stages live in two preallocated (7, n) buffers: an accepted step
    hands its buffer to the dense output (K_old) and continues in the other,
    whose first row takes the last stage (FSAL), so no step copies its
    stages. Each buffer keeps its stage views K[:i].T for the products.
    """

    def __init__(self, f, t, x, opts: IntegratorOptions):
        self.f = f
        self.t = float(t)
        self.x = np.asarray(x, dtype=float)
        self.opts = opts
        self.h = min(opts.first_step, opts.max_step)
        self.K, self.K_old = np.empty((7, len(self.x))), np.empty((7, len(self.x)))
        self._KT = [self.K[:i].T for i in range(8)]
        self._KT_old = [self.K_old[:i].T for i in range(8)]
        self.K[0] = f(self.t, self.x)
        self.t_old = self.t
        self.x_old = self.x.copy()

    def step(self, t_limit: float) -> bool:
        """Advance one accepted step, not beyond t_limit. False once t==t_limit."""
        opts = self.opts
        t, x, f = self.t, self.x, self.f
        if t >= t_limit:
            return False
        h = min(self.h, opts.max_step, t_limit - t)
        h_min = opts.min_step * max(1.0, abs(t))
        atol, rtol = opts.atol, opts.rtol
        K, KT = self.K, self._KT
        while True:
            if h < h_min:
                raise StiffnessError(f"step size underflow at t={t:.6g}")
            for i in range(1, 7):
                K[i] = f(t + _C[i] * h, x + h * (KT[i] @ _A[i]))
            x_new = x + h * (KT[7] @ _B)
            r = h * (KT[7] @ _E) / (atol + rtol * np.maximum(np.abs(x),
                                                             np.abs(x_new)))
            err = math.sqrt(np.add.reduce(r * r) / len(r))
            if err <= 1.0:
                factor = 0.9 * (max(err, 1e-10)) ** -0.2
                self.h = h * min(5.0, max(0.2, factor))
                self.t_old, self.x_old, self.h_old = t, x, h
                self.t = t + h
                self.x = x_new
                self.K, self.K_old = self.K_old, K
                self._KT, self._KT_old = self._KT_old, KT
                self.K[0] = K[6]  # FSAL
                return True
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))

    def interpolate(self, t: float) -> np.ndarray:
        """Dense output inside the last accepted step."""
        h = self.h_old
        s = (t - self.t_old) / h
        q = np.array([s, s * s, s ** 3, s ** 4])
        return self.x_old + h * (self._KT_old[7] @ (_P @ q))


class _Stepper2:
    """_Stepper for one pair of Python floats: the same tableau, step control,
    FSAL, StiffnessError and quartic dense output, with the stages unrolled.

    f(t, (y1, y2)) returns a pair; the state x is a pair of floats. The stage
    sums run left to right over the nonzero tableau entries, and the last
    stage is evaluated at the new state (its row of the tableau is the
    fifth-order weights). The entries of _A, _B, _E and _P are written out as
    literal fractions, which the compiler folds into constants.
    """

    def __init__(self, f, t, x, opts: IntegratorOptions):
        self.f = f
        self.t = float(t)
        self.x = (float(x[0]), float(x[1]))
        self.opts = opts
        self.h = min(opts.first_step, opts.max_step)
        self.k1 = f(self.t, self.x)
        self.t_old = self.t
        self.x_old = self.x

    def step(self, t_limit: float) -> bool:
        """Advance one accepted step, not beyond t_limit. False once t==t_limit."""
        t = self.t
        if t >= t_limit:
            return False
        opts, f = self.opts, self.f
        x1, x2 = self.x
        k11, k12 = self.k1
        h = min(self.h, opts.max_step, t_limit - t)
        h_min = opts.min_step * max(1.0, abs(t))
        atol, rtol = opts.atol, opts.rtol
        while True:
            if h < h_min:
                raise StiffnessError(f"step size underflow at t={t:.6g}")
            k21, k22 = f(t + 1 / 5 * h, (x1 + h * (1 / 5 * k11),
                                         x2 + h * (1 / 5 * k12)))
            k31, k32 = f(t + 3 / 10 * h,
                         (x1 + h * (3 / 40 * k11 + 9 / 40 * k21),
                          x2 + h * (3 / 40 * k12 + 9 / 40 * k22)))
            k41, k42 = f(t + 4 / 5 * h,
                         (x1 + h * (44 / 45 * k11 + -56 / 15 * k21
                                    + 32 / 9 * k31),
                          x2 + h * (44 / 45 * k12 + -56 / 15 * k22
                                    + 32 / 9 * k32)))
            k51, k52 = f(t + 8 / 9 * h,
                         (x1 + h * (19372 / 6561 * k11 + -25360 / 2187 * k21
                                    + 64448 / 6561 * k31 + -212 / 729 * k41),
                          x2 + h * (19372 / 6561 * k12 + -25360 / 2187 * k22
                                    + 64448 / 6561 * k32 + -212 / 729 * k42)))
            k61, k62 = f(t + h,
                         (x1 + h * (9017 / 3168 * k11 + -355 / 33 * k21
                                    + 46732 / 5247 * k31 + 49 / 176 * k41
                                    + -5103 / 18656 * k51),
                          x2 + h * (9017 / 3168 * k12 + -355 / 33 * k22
                                    + 46732 / 5247 * k32 + 49 / 176 * k42
                                    + -5103 / 18656 * k52)))
            n1 = x1 + h * (35 / 384 * k11 + 500 / 1113 * k31 + 125 / 192 * k41
                           + -2187 / 6784 * k51 + 11 / 84 * k61)
            n2 = x2 + h * (35 / 384 * k12 + 500 / 1113 * k32 + 125 / 192 * k42
                           + -2187 / 6784 * k52 + 11 / 84 * k62)
            k71, k72 = f(t + h, (n1, n2))
            r1 = h * (71 / 57600 * k11 + -71 / 16695 * k31 + 71 / 1920 * k41
                      + -17253 / 339200 * k51 + 22 / 525 * k61
                      + -1 / 40 * k71) / (atol + rtol * max(abs(x1), abs(n1)))
            r2 = h * (71 / 57600 * k12 + -71 / 16695 * k32 + 71 / 1920 * k42
                      + -17253 / 339200 * k52 + 22 / 525 * k62
                      + -1 / 40 * k72) / (atol + rtol * max(abs(x2), abs(n2)))
            err = math.sqrt((r1 * r1 + r2 * r2) / 2)
            if err <= 1.0:
                factor = 0.9 * (max(err, 1e-10)) ** -0.2
                self.h = h * min(5.0, max(0.2, factor))
                self.t_old, self.x_old, self.h_old = t, self.x, h
                self.t = t + h
                self.x = (n1, n2)
                self.k1 = (k71, k72)  # FSAL
                self._dense = (k11, k12, k31, k32, k41, k42, k51, k52,
                               k61, k62, k71, k72)
                return True
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))

    def interpolate(self, t: float) -> tuple:
        """Dense output inside the last accepted step."""
        h = self.h_old
        s = (t - self.t_old) / h
        s2, s3, s4 = s * s, s ** 3, s ** 4
        w1 = (s + -8048581381 / 2820520608 * s2 + 8663915743 / 2820520608 * s3
              + -12715105075 / 11282082432 * s4)
        w3 = (131558114200 / 32700410799 * s2 + -68118460800 / 10900136933 * s3
              + 87487479700 / 32700410799 * s4)
        w4 = (-1754552775 / 470086768 * s2 + 14199869525 / 1410260304 * s3
              + -10690763975 / 1880347072 * s4)
        w5 = (127303824393 / 49829197408 * s2
              + -318862633887 / 49829197408 * s3
              + 701980252875 / 199316789632 * s4)
        w6 = (-282668133 / 205662961 * s2 + 2019193451 / 616988883 * s3
              + -1453857185 / 822651844 * s4)
        w7 = (40617522 / 29380423 * s2 + -110615467 / 29380423 * s3
              + 69997945 / 29380423 * s4)
        k11, k12, k31, k32, k41, k42, k51, k52, k61, k62, k71, k72 = self._dense
        x1, x2 = self.x_old
        return (x1 + h * (w1 * k11 + w3 * k31 + w4 * k41 + w5 * k51
                          + w6 * k61 + w7 * k71),
                x2 + h * (w1 * k12 + w3 * k32 + w4 * k42 + w5 * k52
                          + w6 * k62 + w7 * k72))


def _bisect(g, state, t_lo, t_hi, eps, max_iter=200):
    """Locate g(t, state(t)) = 0 in [t_lo, t_hi], with g >= 0 at t_lo and
    g < 0 at t_hi, to |g| <= eps or to a bracket at the time resolution."""
    for _ in range(max_iter):
        t_mid = 0.5 * (t_lo + t_hi)
        x_mid = state(t_mid)
        g_mid = g(t_mid, x_mid)
        if abs(g_mid) <= eps or (t_hi - t_lo) <= 1e-15 * max(1.0, abs(t_mid)):
            return t_mid, x_mid
        if g_mid < 0.0:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return t_mid, x_mid


def _integrate_segment(f, t0, x0, t_end, opts, t_grid0, event=None,
                       arm_above=None, eps=EPS_EVENT, project=None,
                       observe=None, stepper_class=_Stepper):
    """Integrate one smooth field from (t0, x0) until t_end or an event.

    stepper_class is _Stepper for numpy states or _Stepper2 for float pairs,
    with which f returns a pair.

    event(t, x) is a scalar event function. It is armed once it exceeds
    arm_above (from the start when arm_above is None) and fires at the first
    accepted step where it is negative; the event state is then bisected on
    the dense output. project, when given, maps the start, every accepted
    state and the located event state back onto a constraint set. Returns the
    recorded Segment (branch unset), whose last sample is the end or event
    state, and whether the event fired.
    """
    if project is not None:
        x0 = project(x0)
    stepper = stepper_class(f, t0, x0, opts)
    record_step, finish = _segment_recorder(opts, t_grid0, t0, x0, observe)
    armed = arm_above is None or event(t0, x0) > arm_above
    if project is None:
        state = stepper.interpolate
    else:
        def state(t):
            return project(stepper.interpolate(t))
    while stepper.step(t_end):
        if project is not None:
            stepper.x = project(stepper.x)
        if event is not None:
            g_new = event(stepper.t, stepper.x)
            if armed and g_new < 0.0:
                t_ev, x_ev = _bisect(event, state, stepper.t_old, stepper.t, eps)
                return finish(stepper, t_ev, x_ev), True
            if not armed and g_new > arm_above:
                armed = True
        record_step(stepper)
    return finish(stepper, stepper.t, stepper.x), False


def _segment_recorder(opts, t_grid0, t0, x0, observe=None):
    """Samples of one segment: accepted steps (opts.record_steps) and the
    points t_grid0 + k * opts.t_eval_dt after t0 from the dense output. With
    observe(T, Y), which maps sample times (N,) and integrated states (N, d)
    to observed states (N, n), the integrated states are kept as Segment.y
    and the segment's x holds the observed states."""
    ts = [t0]
    xs = [np.asarray(x0).copy()]
    dt, record_steps = opts.t_eval_dt, opts.record_steps
    k = int(np.floor((t0 - t_grid0) / dt)) if dt else 0
    while dt and t_grid0 + k * dt <= t0:
        k += 1

    def flush_grid(stepper, t_limit):
        nonlocal k
        while dt and t_grid0 + k * dt <= t_limit:
            ts.append(t_grid0 + k * dt)
            xs.append(stepper.interpolate(ts[-1]))
            k += 1

    # accepted states are fresh arrays that nothing mutates, so they are
    # recorded without a copy
    def record_step(stepper):
        if dt:
            flush_grid(stepper, stepper.t)
        if record_steps:
            ts.append(stepper.t)
            xs.append(stepper.x)

    def finish(stepper, t_f, x_f):
        flush_grid(stepper, t_f)
        if ts[-1] < t_f - 1e-15 * max(1.0, abs(t_f)):
            ts.append(t_f)
            xs.append(np.asarray(x_f).copy())
        else:
            ts[-1] = t_f
            xs[-1] = np.asarray(x_f).copy()
        X = np.vstack(xs)
        if observe is None:
            return Segment(branch=None, t=np.array(ts), x=X)
        T = np.array(ts)
        return Segment(branch=None, t=T, x=observe(T, X), y=X)

    return record_step, finish


def integrate_hybrid(sys: PiecewiseSmoothSystem, x0, t_span,
                     opts: IntegratorOptions | None = None) -> HybridTrajectory:
    """Integrate a piecewise-smooth system with event handling.

    Within each smooth branch an adaptive RK5(4) runs until sigma changes sign;
    the hit is bisected to |sigma| <= EPS_EVENT and classified. Crossings flip
    the branch; attracting sliding enters a surface segment driven by the
    Filippov field until its convex coefficient reaches +-1. Repelling sliding
    raises RepellingSlidingError with the event state attached.
    """
    opts = opts or IntegratorOptions()
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError("initial state must be finite")
    t0, t_end = float(t_span[0]), float(t_span[1])
    traj = HybridTrajectory()
    if sys.delta == 0.0:
        # smooth limit: the two fields coincide and the surface is inert
        seg, _ = _integrate_segment(sys.f_plus, t0, x0, t_end, opts, t0)
        seg.branch = "+" if sys.switching.sigma(x0) >= 0 else "-"
        traj.segments.append(seg)
        return traj
    s0 = sys.switching.sigma(x0)
    if abs(s0) <= EPS_EVENT:
        cls = classify_boundary(sys, x0, t0)
        if cls.kind == BoundaryKind.ATTRACTING_SLIDING:
            mode = "sigma"
        elif cls.kind == BoundaryKind.REPELLING_SLIDING:
            raise RepellingSlidingError(t0, x0)
        else:
            mode = "+" if cls.direction > 0 else "-"
    else:
        mode = "+" if s0 > 0 else "-"

    t, x = t0, x0.copy()
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        if mode == "sigma":
            t, x, mode = _run_sliding(sys, t, x, t_end, opts, t0, traj)
        else:
            t, x, mode = _run_branch(sys, mode, t, x, t_end, opts, t0, traj)
    return traj


def _run_branch(sys, branch, t0, x0, t_end, opts, t_grid0, traj):
    f = sys.f_plus if branch == "+" else sys.f_minus
    sgn = 1.0 if branch == "+" else -1.0
    sigma = sys.switching.sigma
    # arm crossing detection only once the state sits on the branch's valid
    # side, so segments that begin on the surface cannot retrigger instantly
    seg, hit = _integrate_segment(f, t0, x0, t_end, opts, t_grid0,
                                  event=lambda t, x: sgn * sigma(x),
                                  arm_above=10 * EPS_EVENT)
    seg.branch = branch
    traj.segments.append(seg)
    t_ev, x_ev = seg.t[-1], seg.x[-1]
    if not hit:
        return t_ev, x_ev, branch
    cls = classify_boundary(sys, x_ev, t_ev)
    if cls.kind == BoundaryKind.REPELLING_SLIDING:
        raise RepellingSlidingError(t_ev, x_ev)
    if cls.kind == BoundaryKind.ATTRACTING_SLIDING:
        traj.add_event(t_ev, x_ev, EventKind.STICK_ENTRY, opts.max_events)
        return t_ev, x_ev, "sigma"
    if cls.kind == BoundaryKind.TANGENTIAL:
        traj.add_event(t_ev, x_ev, EventKind.TANGENTIAL, opts.max_events)
        # micro-step with the incoming field, then reclassify by sign
        h_micro = max(1e-12, 1e-8 * max(1.0, abs(t_end - t0)))
        x_next = x_ev + h_micro * f(t_ev, x_ev)
        t_next = t_ev + h_micro
        s_next = sigma(x_next)
        nxt = "+" if s_next > 0 else "-"
        return t_next, x_next, nxt
    traj.add_event(t_ev, x_ev, EventKind.CROSSING, opts.max_events)
    return t_ev, x_ev, ("+" if cls.direction > 0 else "-")


def _run_sliding(sys, t0, x0, t_end, opts, t_grid0, traj):
    grad = sys.switching.grad_sigma

    def project(x):
        # one Newton step onto sigma = 0 (exact for linear sigma)
        g = np.asarray(grad(x), dtype=float)
        return x - sys.switching.sigma(x) * g / float(g @ g)

    def f_slide(t, x):
        _, fs = filippov_field(sys, x, t)
        return fs

    def lam_margin(t, x):
        # sliding ends where |lambda| reaches 1
        lam, _ = filippov_field(sys, x, t)
        return 1.0 - lam * lam

    seg, hit = _integrate_segment(f_slide, t0, np.asarray(x0, dtype=float),
                                  t_end, opts, t_grid0, event=lam_margin,
                                  eps=1e-12, project=project)
    seg.branch = "sigma"
    traj.segments.append(seg)
    t_ev, x_ev = seg.t[-1], seg.x[-1]
    if not hit:
        return t_ev, x_ev, "sigma"
    traj.add_event(t_ev, x_ev, EventKind.STICK_EXIT, opts.max_events)
    lam, _ = filippov_field(sys, x_ev, t_ev)
    return t_ev, x_ev, ("+" if lam > 0 else "-")

