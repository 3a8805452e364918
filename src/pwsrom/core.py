"""Piecewise-smooth systems: switching-surface classification, the Filippov
sliding field, and event-driven hybrid integration.

Vector fields have signature f(t, x) -> ndarray or tuple of floats and must
be smooth extensions valid on both sides of the switching surface.
Integration uses an embedded Dormand-Prince 5(4) pair with dense output. One
kernel, _integrate_segment, runs a smooth field until an armed scalar event
function turns negative and bisects the event on the continuous extension
(to |sigma| <= EPS_EVENT for surface hits). Branch segments, Filippov
sliding and the switched reduced model (pwsrom.rom, pwsrom.analysis) all run
through it and record into one trajectory type, HybridTrajectory.

Two kinds of stepper share one tableau, step control, FSAL and quartic dense
output; the field's return type picks one (_stepper). _Stepper runs ndarray
fields on numpy stages in two buffers that swap on acceptance, equal to the
bit to one buffer and copies. A field that returns a tuple of n floats (the
oscillator, the reduced models) runs on the float stepper of length n,
generated on first use from the tableau's literal fractions with the stages
unrolled (_float_stepper); its sums run left to right, not through BLAS, so
it agrees with _Stepper to round-off, not to the bit. filippov_field returns
f_sigma in the type the fields return, so sliding on tuple fields (the
oscillator) runs on the float stepper as well; ndarray fields (the beam) slide
on numpy stages. Within one integrate_hybrid or simulate_rom call, each
segment after an event starts at the last accepted step size (capped by
max_step); only the first segment of a call starts at opts.first_step. The
trajectory reports as next_step the step its stepper would take after t_end,
so a caller that continues from there (one forcing period after another) can
start at it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

EPS_EVENT = 1e-10          # absolute tolerance on sigma at reported events
TANGENTIAL_WINDOW = 1e-9   # |f[index]| below this (scaled) is tangential
MAX_EVENTS = 10_000        # chattering guard: events in one call


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
class PiecewiseSmoothSystem:
    """Two smooth vector fields separated by the surface sigma(x) = 0, where
    sigma(x) = x[index] - level for surface = (index, level): one state
    coordinate crossing one level, the form of every surface the models
    declare. Its unit normal makes f[index] the normal component of a field.

    f_plus governs sigma > 0, f_minus governs sigma < 0; both must evaluate on
    either side of the surface. Immutable and safe to share across
    concurrently running integrations.
    """

    f_plus: Callable[[float, np.ndarray], np.ndarray]
    f_minus: Callable[[float, np.ndarray], np.ndarray]
    surface: tuple[int, float]
    delta: float = 0.0

    def sigma(self, x) -> float:
        i, level = self.surface
        return float(x[i]) - level


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
    if abs(sys.sigma(x)) > EPS_EVENT * 100:
        raise ValueError("state is not on the switching surface within tolerance")
    i = sys.surface[0]
    fp = np.asarray(sys.f_plus(t, x))
    fm = np.asarray(sys.f_minus(t, x))
    a_plus, a_minus = float(fp[i]), float(fm[i])
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
    sliding states. The normal components are a+- = f+-[index], so
    f_sigma[index] = (a- a+ - a+ a-) / den is exactly 0.0: a sliding segment
    started at x[index] = level stays there to the bit, in every stage, step
    and dense-output point. f_sigma is a tuple of floats when the fields
    return tuples (then x may be a tuple), else an ndarray; the two agree to
    the bit.
    """
    if not isinstance(x, tuple):
        x = np.asarray(x, dtype=float)
    i = sys.surface[0]
    fp, fm = sys.f_plus(t, x), sys.f_minus(t, x)
    a_plus, a_minus = float(fp[i]), float(fm[i])
    den = a_minus - a_plus
    scale = 1.0 + abs(a_plus) + abs(a_minus)
    if abs(den) < 1e-14 * scale:
        raise DegenerateDenominatorError(
            "f_minus[index] - f_plus[index] vanishes; sliding field undefined")
    lam = (a_minus + a_plus) / den
    if isinstance(fp, tuple):
        return lam, tuple([(a_minus * p - a_plus * m) / den
                           for p, m in zip(fp, fm)])
    return lam, (a_minus * np.asarray(fp) - a_plus * np.asarray(fm)) / den


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
    next_step: Optional[float] = None   # the step the stepper takes after t_end

    @property
    def t_end(self) -> float:
        return self.segments[-1].t[-1] if self.segments else np.nan

    @property
    def x_end(self) -> np.ndarray:
        return self.segments[-1].x[-1]

    def times(self) -> np.ndarray:
        return np.concatenate([s.t for s in self.segments])

    def add_event(self, t, x, kind) -> None:
        """Append an event; more than MAX_EVENTS raise ChatteringError."""
        self.events.append(Event(t=t, x=np.asarray(x).copy(), kind=kind))
        if len(self.events) > MAX_EVENTS:
            raise ChatteringError(
                f"more than {MAX_EVENTS} events in one time span")

    def states(self) -> np.ndarray:
        return np.vstack([s.x for s in self.segments])

    def sample(self, t_grid: np.ndarray) -> np.ndarray:
        """Linear-in-segment resampling onto an arbitrary time grid. Only the
        segments that reach from the last segment end at or before the
        grid's first time to the first segment start after its last time
        are read: they hold every sample that brackets a grid point, so the
        result is the same to the bit as from the whole trajectory."""
        segs = self.segments
        if len(t_grid):
            starts = np.array([s.t[0] for s in segs])
            ends = np.array([s.t[-1] for s in segs])
            before = ends[ends <= np.min(t_grid)]
            after = starts[starts > np.max(t_grid)]
            lo = before.max() if before.size else -np.inf
            hi = after.min() if after.size else np.inf
            segs = [s for s, a, b in zip(segs, starts, ends)
                    if a <= hi and b >= lo]
        t_all = np.concatenate([s.t for s in segs])
        x_all = np.vstack([s.x for s in segs])
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
        n = self.segments[0].x.shape[1] if self.segments else int(dim or 0)
        reduced = bool(self.segments) and self.segments[0].y is not None
        d = self.segments[0].y.shape[1] if reduced else 0
        code = {"+": 1, "-": -1, "sigma": 0}
        cols = [f"x{i+1}" for i in range(n)]
        write_rows(path, ["t", *cols, "branch"] + [f"xi{i+1}" for i in range(d)],
                   ([t, *x, code[s.branch], *y] for s in self.segments
                    for t, x, y in zip(s.t.tolist(), s.x.tolist(),
                                       s.y.tolist() if reduced else [()] * len(s.t))))
        if events_path is not None:
            write_rows(events_path, ["t_event", "kind", *cols],
                       ([float(e.t), e.kind.value, *e.x.tolist()]
                        for e in self.events))


def write_rows(path, header, rows) -> None:
    """A CSV file: the header line, then each row joined by str. For the
    Python floats of tolist() that is their repr, the shortest string that
    reads back to the same float."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


@dataclass
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-11
    max_step: float = np.inf
    first_step: float = 1e-4   # of a call; a segment after an event carries h
    t_eval_dt: Optional[float] = None   # also sample t_span[0] + k * t_eval_dt
    record_steps: bool = True
    min_step: float = 1e-14


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I) in literal
# fractions: nodes c, rows 2-7 of A (the last is the 5th-order weights), error
# weights, and per stage the weights of s..s^4 of the quartic dense output.
_TABLEAU = [row.split() for row in """\
0 1/5 3/10 4/5 8/9 1 1
1/5
3/40 9/40
44/45 -56/15 32/9
19372/6561 -25360/2187 64448/6561 -212/729
9017/3168 -355/33 46732/5247 49/176 -5103/18656
35/384 0 500/1113 125/192 -2187/6784 11/84
71/57600 0 -71/16695 71/1920 -17253/339200 22/525 -1/40
1 -8048581381/2820520608 8663915743/2820520608 -12715105075/11282082432
0 0 0 0
0 131558114200/32700410799 -68118460800/10900136933 87487479700/32700410799
0 -1754552775/470086768 14199869525/1410260304 -10690763975/1880347072
0 127303824393/49829197408 -318862633887/49829197408 701980252875/199316789632
0 -282668133/205662961 2019193451/616988883 -1453857185/822651844
0 40617522/29380423 -110615467/29380423 69997945/29380423
""".splitlines()]
_C_SRC, _A_SRC, _E_SRC, _P_SRC = (_TABLEAU[0], [[]] + _TABLEAU[1:7],
                                  _TABLEAU[7], _TABLEAU[8:])


def _values(fracs) -> np.ndarray:
    return np.array([int(p) / int(q or 1)
                     for p, _, q in (f.partition("/") for f in fracs)])


_C = tuple(_values(_C_SRC).tolist())     # Python floats: scalar nodes
_A = [_values(row) for row in _A_SRC]
_B = _values(_A_SRC[6] + ["0"])
_E = _values(_E_SRC)
_P = np.array([_values(row) for row in _P_SRC])


class _Stepper:
    """Adaptive DP5(4) stepper with quartic dense output for one smooth field.

    The stages live in two preallocated (7, n) buffers: an accepted step
    hands its buffer to the dense output (K_old) and continues in the other,
    whose first row takes the last stage (FSAL), so no step copies its
    stages. Each buffer keeps its stage views K[:i].T for the products.
    """

    def __init__(self, f, t, x, opts: IntegratorOptions, k1=None):
        self.f = f
        self.t = float(t)
        self.x = np.asarray(x, dtype=float)
        self.opts = opts
        self.h = min(opts.first_step, opts.max_step)
        self.K, self.K_old = np.empty((7, len(self.x))), np.empty((7, len(self.x)))
        self._KT = [self.K[:i].T for i in range(8)]
        self._KT_old = [self.K_old[:i].T for i in range(8)]
        self.K[0] = f(self.t, self.x) if k1 is None else k1
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


_FLOAT_STEPPER = """\
class _FloatStepper:
    def __init__(self, f, t, x, opts, k1=None):
        self.f, self.opts = f, opts
        self.t = float(t)
        self.x = tuple(map(float, x))
        self.h = min(opts.first_step, opts.max_step)
        self.k1 = f(self.t, self.x) if k1 is None else k1
        self.t_old, self.x_old = self.t, self.x

    def step(self, t_limit):
        t = self.t
        if t >= t_limit:
            return False
        opts, f = self.opts, self.f
        {x} = self.x
        {k1} = self.k1
        h = min(self.h, opts.max_step, t_limit - t)
        h_min = opts.min_step * max(1.0, abs(t))
        atol, rtol = opts.atol, opts.rtol
        while True:
            if h < h_min:
                raise StiffnessError(f"step size underflow at t={{t:.6g}}")
{stages}
            err = math.sqrt(({err}) / {n})
            if err <= 1.0:
                factor = 0.9 * (max(err, 1e-10)) ** -0.2
                self.h = h * min(5.0, max(0.2, factor))
                self.t_old, self.x_old, self.h_old = t, self.x, h
                self.t, self.x = t + h, ({new})
                self.k1 = ({k7})  # FSAL
                self._dense = ({dense})
                return True
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))

    def interpolate(self, t):
        h = self.h_old
        s = (t - self.t_old) / h
        s2, s3, s4 = s * s, s ** 3, s ** 4
{weights}
        {dense} = self._dense
        {x} = self.x_old
        return ({interpolant})
"""


def _float_stepper_source(n: int) -> str:
    """Source of _Stepper unrolled for a tuple of n floats: each sum runs left
    to right over the nonzero tableau entries, and the last stage is evaluated
    at the new state (its row of A is the fifth-order weights)."""
    js = range(1, n + 1)
    k = [[f"k{i}_{j}" for j in js] for i in range(8)]    # k[i]: stage i
    dense = [i for i, row in enumerate(_P_SRC, 1) if set(row) != {"0"}]

    def terms(coeffs, names):
        return " + ".join(v if c == "1" else f"{c} * {v}"
                          for c, v in zip(coeffs, names) if c != "0")

    def tup(items):
        return ", ".join(items) + ("," if len(items) == 1 else "")

    def h_sum(coeffs, j, stages=range(1, 8)):
        return f"h * ({terms(coeffs, [k[i][j - 1] for i in stages])})"

    def stage(i, state):
        node = terms([_C_SRC[i - 1]], ["h"])
        return f"            {tup(k[i])} = f(t + {node}, ({tup(state)}))"

    stages = ([stage(i, [f"x{j} + {h_sum(_A_SRC[i - 1], j)}" for j in js])
               for i in range(2, 7)]
              + [f"            n{j} = x{j} + {h_sum(_A_SRC[6], j)}" for j in js]
              + [stage(7, [f"n{j}" for j in js])]
              + [f"            r{j} = {h_sum(_E_SRC, j)} / "
                 f"(atol + rtol * max(abs(x{j}), abs(n{j})))" for j in js])
    return _FLOAT_STEPPER.format(
        n=n, x=tup([f"x{j}" for j in js]), new=tup([f"n{j}" for j in js]),
        k1=tup(k[1]), k7=tup(k[7]), dense=tup([v for i in dense for v in k[i]]),
        stages="\n".join(stages), err=" + ".join(f"r{j} * r{j}" for j in js),
        weights="\n".join(f"        w{i} = {terms(_P_SRC[i - 1], ['s', 's2', 's3', 's4'])}"
                          for i in dense),
        interpolant=tup([f"x{j} + {h_sum([f'w{i}' for i in dense], j, dense)}"
                         for j in js]))


@functools.cache
def _float_stepper(n: int) -> type:
    """The float stepper class of length n, built by exec on first use."""
    namespace = {"math": math, "StiffnessError": StiffnessError}
    exec(_float_stepper_source(n), namespace)
    return namespace["_FloatStepper"]


def _stepper(f, t, x, opts: IntegratorOptions, h=None):
    """The float stepper of the field's length when f returns a tuple, else
    the numpy _Stepper; the first field value is the first stage. The first
    step is h, or opts.first_step without h, capped by opts.max_step."""
    t = float(t)
    k1 = f(t, x)
    cls = _float_stepper(len(k1)) if isinstance(k1, tuple) else _Stepper
    stepper = cls(f, t, x, opts, k1)
    stepper.h = min(opts.first_step if h is None else h, opts.max_step)
    return stepper


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
                       arm_above=None, eps=EPS_EVENT, observe=None, h=None):
    """Integrate one smooth field from (t0, x0) until t_end or an event.

    The field's return type picks the stepper (_stepper), which starts at
    step h (opts.first_step without h). event(t, x) is a scalar event
    function. It is armed once it exceeds arm_above (from the start when
    arm_above is None) and fires at the first accepted step where it is
    negative; the event state is then bisected on the dense output. Returns
    the recorded Segment (branch unset), whose last sample is the end or
    event state, whether the event fired, and then the step to carry on
    with: the last accepted step size after an event, else the larger of the
    steps the stepper proposed before and after its last step (which was cut
    short to end at t_end).
    """
    stepper = _stepper(f, t0, x0, opts, h)
    record_step, finish = _segment_recorder(opts, t_grid0, t0, x0, observe)
    armed = arm_above is None or event(t0, x0) > arm_above
    before = after = stepper.h
    while stepper.step(t_end):
        if event is not None:
            g_new = event(stepper.t, stepper.x)
            if armed and g_new < 0.0:
                t_ev, x_ev = _bisect(event, stepper.interpolate, stepper.t_old,
                                     stepper.t, eps)
                return finish(stepper, t_ev, x_ev), True, stepper.h_old
            if not armed and g_new > arm_above:
                armed = True
        record_step(stepper)
        before, after = after, stepper.h
    return finish(stepper, stepper.t, stepper.x), False, max(before, after)


def _segment_recorder(opts, t_grid0, t0, x0, observe=None):
    """Samples of one segment: accepted steps (opts.record_steps) and the
    points t_grid0 + k * opts.t_eval_dt after t0 from the dense output. They
    are written as rows of a times buffer (N,) and a states buffer (N, d),
    tuple and ndarray states alike. The buffers grow by a quarter when full
    and end at the recorded size, both in place (ndarray.resize reallocates;
    nothing else references them while recording), so a segment is never
    held twice and no spare capacity outlives it; a segment that fits the
    first 64 rows is copied out instead. With
    observe(T, Y), which maps sample times (N,) and integrated states (N, d)
    to observed states (N, n), the integrated states are kept as Segment.y
    and the segment's x holds the observed states."""
    T, X = np.empty(64), np.empty((64, len(x0)))
    T[0], X[0], size = t0, x0, 1
    dt, record_steps = opts.t_eval_dt, opts.record_steps
    k = int(np.floor((t0 - t_grid0) / dt)) if dt else 0
    while dt and t_grid0 + k * dt <= t0:
        k += 1

    def record(t, x):
        nonlocal size
        if size == len(T):
            T.resize(size + size // 4, refcheck=False)
            X.resize((len(T), X.shape[1]), refcheck=False)
        T[size], X[size] = t, x
        size += 1

    def flush_grid(stepper, t_limit):
        nonlocal k
        while dt and t_grid0 + k * dt <= t_limit:
            t = t_grid0 + k * dt
            record(t, stepper.interpolate(t))
            k += 1

    def record_step(stepper):
        if dt:
            flush_grid(stepper, stepper.t)
        if record_steps:
            record(stepper.t, stepper.x)

    def finish(stepper, t_f, x_f):
        nonlocal size, T, X
        flush_grid(stepper, t_f)
        if T[size - 1] >= t_f - 1e-15 * max(1.0, abs(t_f)):
            size -= 1
        record(t_f, x_f)
        if len(T) == 64:
            # copied out: shrinking the first buffer in place leaves holes
            T, X = T[:size].copy(), X[:size].copy()
        else:
            T.resize(size, refcheck=False)
            X.resize((size, X.shape[1]), refcheck=False)
        if observe is None:
            return Segment(branch=None, t=T, x=X)
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
        seg, _, traj.next_step = _integrate_segment(sys.f_plus, t0, x0,
                                                    t_end, opts, t0)
        seg.branch = "+" if sys.sigma(x0) >= 0 else "-"
        traj.segments.append(seg)
        return traj
    s0 = sys.sigma(x0)
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

    # each segment after an event starts at the last accepted step, h
    t, x, h = t0, x0.copy(), None
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        if mode == "sigma":
            t, x, mode, h = _run_sliding(sys, t, x, t_end, opts, t0, traj, h)
        else:
            t, x, mode, h = _run_branch(sys, mode, t, x, t_end, opts, t0, traj, h)
    traj.next_step = h
    return traj


def _run_branch(sys, branch, t0, x0, t_end, opts, t_grid0, traj, h):
    f = sys.f_plus if branch == "+" else sys.f_minus
    sgn = 1.0 if branch == "+" else -1.0
    sigma = sys.sigma
    # arm crossing detection only once the state sits on the branch's valid
    # side, so segments that begin on the surface cannot retrigger instantly
    seg, hit, h = _integrate_segment(f, t0, x0, t_end, opts, t_grid0,
                                     event=lambda t, x: sgn * sigma(x),
                                     arm_above=10 * EPS_EVENT, h=h)
    seg.branch = branch
    traj.segments.append(seg)
    t_ev, x_ev = seg.t[-1], seg.x[-1]
    if not hit:
        return t_ev, x_ev, branch, h
    cls = classify_boundary(sys, x_ev, t_ev)
    if cls.kind == BoundaryKind.REPELLING_SLIDING:
        raise RepellingSlidingError(t_ev, x_ev)
    if cls.kind == BoundaryKind.ATTRACTING_SLIDING:
        traj.add_event(t_ev, x_ev, EventKind.STICK_ENTRY)
        return t_ev, x_ev, "sigma", h
    if cls.kind == BoundaryKind.TANGENTIAL:
        traj.add_event(t_ev, x_ev, EventKind.TANGENTIAL)
        # micro-step with the incoming field, then reclassify by sign
        h_micro = max(1e-12, 1e-8 * max(1.0, abs(t_end - t0)))
        x_next = x_ev + h_micro * np.asarray(f(t_ev, x_ev))
        t_next = t_ev + h_micro
        s_next = sigma(x_next)
        nxt = "+" if s_next > 0 else "-"
        return t_next, x_next, nxt, h
    traj.add_event(t_ev, x_ev, EventKind.CROSSING)
    return t_ev, x_ev, ("+" if cls.direction > 0 else "-"), h


def _run_sliding(sys, t0, x0, t_end, opts, t_grid0, traj, h):
    # the start goes onto the surface once; f_sigma[index] is exactly 0.0
    # (filippov_field), so the segment stays on it to the bit
    index, level = sys.surface
    x0 = np.array(x0, dtype=float)
    x0[index] = level

    def f_slide(t, x):
        _, fs = filippov_field(sys, x, t)
        return fs

    def lam_margin(t, x):
        # sliding ends where |lambda| reaches 1
        lam, _ = filippov_field(sys, x, t)
        return 1.0 - lam * lam

    seg, hit, h = _integrate_segment(f_slide, t0, x0, t_end, opts, t_grid0,
                                     event=lam_margin, eps=1e-12, h=h)
    seg.branch = "sigma"
    traj.segments.append(seg)
    t_ev, x_ev = seg.t[-1], seg.x[-1]
    if not hit:
        return t_ev, x_ev, "sigma", h
    traj.add_event(t_ev, x_ev, EventKind.STICK_EXIT)
    lam, _ = filippov_field(sys, x_ev, t_ev)
    return t_ev, x_ev, ("+" if lam > 0 else "-"), h

