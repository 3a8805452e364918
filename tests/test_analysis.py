import numpy as np
import pytest

from pwsrom import analysis
from pwsrom.core import EventKind, IntegratorOptions, integrate_hybrid
from pwsrom.problem import Oscillator
from pwsrom.rom import StrategyError, _correct_onto_surface
from pwsrom.shaw_pierre import (SpParams, make_system, sp_elastic_term,
                                sp_switching)


_A = np.array([[0.9, 0.2], [-0.1, 0.8]])
_B = np.array([1.0, -0.5])


def _contraction(record=None):
    """Period stepper of the linear contraction x -> A x + b; the amplitude
    is |x|. Appends each state it is given to `record`."""
    def step(t0, x):
        if record is not None:
            record.append(np.array(x, dtype=float))
        x = _A @ x + _B
        return x, float(np.linalg.norm(x))
    return step


def test_steady_state_amplitude_converges():
    fixed = np.linalg.solve(np.eye(2) - _A, _B)
    amp, conv, n, x = analysis.steady_state_amplitude(
        _contraction(), np.zeros(2), 1.0, max_periods=500)
    assert conv
    assert np.linalg.norm(x - fixed) <= 1e-6
    assert amp == np.linalg.norm(x)
    # plain iteration needs more periods to get as close
    plain, k = np.zeros(2), 0
    while np.linalg.norm(plain - fixed) > 1e-6:
        plain, k = _A @ plain + _B, k + 1
    assert n < k


def test_steady_state_amplitude_cap():
    # x -> x + 1 has no fixed point
    amp, conv, n, x = analysis.steady_state_amplitude(
        lambda t0, x: (x + 1.0, 1.0), np.zeros(1), 1.0, max_periods=20)
    assert not conv
    assert n == 20
    assert x[0] == 20.0


def test_steady_state_amplitude_plain_above_gate():
    # the states given to the stepper are the plain orbit until the relative
    # residual first falls below the gate; the next ones are mixed
    seen = []
    analysis.steady_state_amplitude(_contraction(seen), np.zeros(2), 1.0)
    plain = [np.zeros(2)]
    while True:
        nxt = _A @ plain[-1] + _B
        res = np.linalg.norm(nxt - plain[-1]) / np.linalg.norm(nxt)
        plain.append(nxt)
        if res <= analysis._GATE:
            break
    # the first sub-gate residual has no history yet, so P(x) is taken plain
    k = len(plain)
    assert k > 3
    assert all(np.array_equal(a, b) for a, b in zip(seen[:k], plain))
    assert not np.array_equal(seen[k], _A @ plain[-1] + _B)


def test_steady_state_amplitude_reduced_state_tag():
    # a (y, tag) state mixes y and carries the tag of the latest P(x)
    given, made = [], []

    def step(t0, state):
        y, tag = state
        given.append(tag)
        made.append(f"b{len(made)}")
        y = _A @ y + _B
        return (y, made[-1]), float(np.linalg.norm(y))

    amp, conv, n, (y, tag) = analysis.steady_state_amplitude(
        step, (np.zeros(2), "start"), 1.0)
    assert conv and n == len(made)
    assert given == ["start"] + made[:-1]
    assert tag == made[-1]


def test_steady_state_amplitude_identity_converges_at_once():
    # a state that P leaves in place passes the tolerance and its guard
    # period: two periods in all
    steady = analysis.steady_state_amplitude(
        lambda t0, x: (x, 1.0), np.ones(3), 1.0)
    assert tuple(steady)[:3] == (1.0, True, 2)
    assert steady.residual == 0.0


def test_stale_history_converges_to_the_new_fixed_point():
    # the history of one contraction starts the solve of another: the first
    # sub-gate period is mixed on it, and the solver still lands on the new
    # map's fixed point through a plain guard period
    history = analysis.steady_state_amplitude(_contraction(), np.zeros(2),
                                              1.0).history
    assert 0 < len(history) <= analysis._DEPTH
    A2, b2 = np.array([[0.7, -0.3], [0.2, 0.85]]), np.array([0.4, 1.2])
    fixed = np.linalg.solve(np.eye(2) - A2, b2)
    seen = []

    def step(t0, x):
        seen.append(np.array(x, dtype=float))
        x = A2 @ x + b2
        return x, float(np.linalg.norm(x))

    start = fixed + np.array([0.05, -0.03])
    steady = analysis.steady_state_amplitude(step, start, 1.0,
                                             history=history)
    amp, conv, n, x = steady
    assert conv and n == len(seen)
    assert np.linalg.norm(x - fixed) <= 1e-6 * np.linalg.norm(fixed)
    assert steady.residual <= analysis._TOL
    assert not np.array_equal(seen[1], A2 @ seen[0] + b2)   # mixed at once
    # the guard: the accepted state is one plain period from P(x) of the
    # period before
    assert np.array_equal(seen[-1], A2 @ seen[-2] + b2)
    assert np.array_equal(x, A2 @ seen[-1] + b2)
    # above the gate the same history is dropped: plain periods run
    seen.clear()
    analysis.steady_state_amplitude(step, 50 * fixed, 1.0, history=history)
    assert np.array_equal(seen[1], A2 @ seen[0] + b2)


def _brute_force(step_period, state, period, max_periods=500, history=()):
    """Oracle: plain periods until the amplitude changes by at most 1e-6
    relative for five periods in a row. It takes the mixing history of the
    point before, as the solver does, and leaves it unused."""
    prev, streak = None, 0
    for k in range(1, max_periods + 1):
        state, amp = step_period((k - 1) * period, state)
        if prev is not None and abs(amp - prev) <= 1e-6 * amp:
            streak += 1
            if streak == 5:
                return analysis.SteadyState(amp, True, k, state, np.nan)
        else:
            streak = 0
        prev = amp
    return analysis.SteadyState(amp, False, max_periods, state, np.nan)


@pytest.mark.parametrize("rom", [None, {}])
def test_steady_states_match_brute_force(monkeypatch, rom):
    # four warm-started points of the oscillator band at eps = 0.15, full
    # model and analytic ROM: the solver lands on the brute-force amplitudes
    # in fewer periods
    problem = Oscillator(SpParams(delta=1e-2))
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    grid = np.linspace(0.9, 1.1, 4)
    sweep = lambda: analysis.frc_sweep(problem, grid, 0.15, opts,
                                       max_periods=400, rom=rom)
    fast = sweep()
    monkeypatch.setattr(analysis, "steady_state_amplitude", _brute_force)
    slow = sweep()
    assert all(p.converged for p in fast + slow)
    for pf, ps in zip(fast, slow):
        assert abs(pf.amplitude - ps.amplitude) <= 2e-3 * ps.amplitude
        assert pf.residual <= analysis._TOL
    assert sum(p.n_periods for p in fast) < sum(p.n_periods for p in slow)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rom", [None, {}])
def test_chunk_alone_equals_the_chunk_in_a_sweep(rom, threads):
    # what a point hands to the next (state, mixing history, step size)
    # stays inside its chunk: the second chunk of a sweep is the same to
    # the bit as that chunk swept alone, at any worker count
    problem = Oscillator(SpParams(delta=1e-2))
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    grid = np.linspace(0.95, 1.05, 4)
    sweep = analysis.frc_sweep(problem, grid, 0.15, opts, chunk=2,
                               threads=threads, max_periods=60, rom=rom)
    alone = analysis.frc_sweep(problem, grid[2:], 0.15, opts, chunk=2,
                               max_periods=60, rom=rom)
    assert all(p.converged for p in sweep)

    def bits(p):
        y, branch = (p.state, None) if rom is None else p.state
        return (p.omega, p.amplitude, p.n_periods, p.residual,
                np.asarray(y).tobytes(), branch)

    assert [bits(p) for p in sweep[2:]] == [bits(p) for p in alone]


@pytest.mark.parametrize("rom", [None, {}])
def test_each_period_starts_at_the_step_the_one_before_takes_next(
        monkeypatch, rom):
    # a point's first period starts at opts.first_step, each later period
    # at the previous trajectory's next_step, on either model
    runs = []

    def recorded(run):
        def integrate(*args):
            traj = run(*args)
            runs.append((args[-1].first_step, traj.next_step))
            return traj
        return integrate

    monkeypatch.setattr(analysis, "integrate_hybrid",
                        recorded(analysis.integrate_hybrid))
    monkeypatch.setattr(analysis, "simulate_rom",
                        recorded(analysis.simulate_rom))
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10, first_step=1e-4)
    step, period = analysis.frc_stepper(Oscillator(SpParams(delta=1e-2)),
                                        1.0, 0.15, opts, rom)
    x = np.zeros(4) if rom is None else (np.zeros(2), "+")
    for k in range(4):
        x, _ = step(k * period, x)
    assert runs[0][0] == 1e-4
    assert [first for first, _ in runs[1:]] == [nxt for _, nxt in runs[:-1]]
    assert all(nxt > 1e-4 for _, nxt in runs)


def linear_frf_amplitude(params, omega):
    """Closed-form response amplitude of q1 for the linear oscillator."""
    M = np.diag([params.m1, params.m2])
    C = params.c * np.array([[1.0, -1.0], [-1.0, 2.0]])
    K = params.k * np.array([[2.0, -1.0], [-1.0, 2.0]])
    F = params.eps / np.sqrt(2.0) * np.array([1.0, 1.0])
    X = np.linalg.solve(-omega ** 2 * M + 1j * omega * C + K, F)
    return abs(X[0])


def test_frc_matches_linear_transfer_function():
    params = SpParams(alpha=0.0, delta=0.0, eps=0.15)
    for om in (0.85, 1.0, 1.1):
        p = SpParams(alpha=0.0, delta=0.0, eps=0.15, omega=om)
        period = 2 * np.pi / om
        opts = IntegratorOptions(rtol=1e-9, atol=1e-11, max_step=period / 128)
        step, _ = analysis.hybrid_period_stepper(
            lambda w: make_system(p), om, 0, opts)
        amp, conv, n, _ = analysis.steady_state_amplitude(
            step, np.zeros(4), period, max_periods=400)
        assert conv
        # sampling at 128 points a period biases the amplitude down by at
        # most 1 - cos(pi / 128) = 3.0e-4
        ref = linear_frf_amplitude(p, om)
        assert abs(amp - ref) / ref < 5e-4


def test_frc_amplitude_linear_in_forcing():
    amps = {}
    for eps in (1e-3, 2e-3):
        p = SpParams(alpha=0.0, delta=0.0, eps=eps, omega=1.05)
        period = 2 * np.pi / 1.05
        opts = IntegratorOptions(rtol=1e-9, atol=1e-11, max_step=period / 64)
        step, _ = analysis.hybrid_period_stepper(
            lambda w: make_system(p), 1.05, 0, opts)
        amps[eps], conv, *_ = analysis.steady_state_amplitude(
            step, np.zeros(4), period, max_periods=400)
    assert abs(amps[2e-3] / amps[1e-3] - 2.0) < 0.01


class _Contracting:
    """A stub problem with one state, which its period stepper halves and
    moves by omega: the fixed point is 2 omega."""
    dim, amp_coord = 1, 0


def _contracting_stepper(make_system, omega, amp_index, opts):
    return (lambda t0, x: (0.5 * x + omega, 1.0)), 1.0


def test_frc_sweep_chunks_deterministic(monkeypatch):
    monkeypatch.setattr(analysis, "hybrid_period_stepper", _contracting_stepper)
    grid = np.linspace(1.0, 2.0, 7)
    runs = [analysis.frc_sweep(_Contracting(), grid, 1.0, IntegratorOptions(),
                               chunk=3, threads=threads) for threads in (1, 2)]
    for pts in runs:
        assert [p.omega for p in pts] == list(grid)
        assert all(p.converged for p in pts)
        assert all(abs(p.state[0] - 2 * p.omega) <= 1e-6 * p.omega
                   for p in pts)
        # cold starts from rest at chunk boundaries only, whatever the
        # worker count; a warm start sits near its fixed point and takes
        # fewer periods
        n = [p.n_periods for p in pts]
        assert n[0] == n[3] == n[6]
        assert max(n[1], n[2], n[4], n[5]) < n[0]
    assert [(p.amplitude, p.n_periods, p.residual, p.state[0])
            for p in runs[0]] == [(p.amplitude, p.n_periods, p.residual,
                                   p.state[0]) for p in runs[1]]


def test_poincare_map_and_edges():
    params = SpParams(delta=0.01)
    sys = make_system(params)
    rom = Oscillator(params).rom()
    ics = [rom.model_plus.lift(np.array([0.45, 0.1])),
           rom.model_minus.lift(np.array([-0.4, -0.05]))]
    margin = lambda x: abs(sp_elastic_term(params, x)) - params.delta
    data = analysis.poincare_map(sys, ics, (0.0, 200.0), margin, skip=2)
    assert len(data.invariant_points) > 6
    assert set(np.unique(data.directions)) <= {-1, 1}
    assert data.edge_plus is not None and data.edge_minus is not None
    # every recorded crossing sits on the surface
    assert np.abs(data.invariant_points[:, 1]).max() <= 1e-10


def test_poincare_restart_consistency():
    # integrating afresh from a recorded crossing reproduces the subsequent
    # crossings (the return map composes)
    params = SpParams(delta=0.01)
    sys = make_system(params)
    rom = Oscillator(params).rom()
    ic = rom.model_plus.lift(np.array([0.5, 0.0]))
    traj = integrate_hybrid(sys, ic, (0.0, 60.0))
    evs = [e for e in traj.events if e.kind == EventKind.CROSSING]
    assert len(evs) >= 3
    re = integrate_hybrid(sys, evs[0].x, (evs[0].t, 60.0))
    revs = [e for e in re.events if e.kind == EventKind.CROSSING]
    assert abs(revs[0].t - evs[1].t) < 1e-6
    assert np.allclose(revs[0].x, evs[1].x, atol=1e-7)


def test_surface_arcs_pass_near_fixed_points():
    params = SpParams(delta=0.05)
    rom = Oscillator(params).rom()
    margin = lambda x: abs(sp_elastic_term(params, x)) - params.delta
    out = analysis.approx_invariant_curve(rom, margin, span=0.5, n=201)
    for b in "+-":
        X = out["arcs"][b]
        assert np.abs(X[:, 1]).max() <= 1e-8   # on the surface
    assert out["edge_plus"] is not None
    assert out["edge_minus"] is not None


def test_advect_from_surface_takes_the_side_the_flow_leaves_on():
    # a start 1e-9 off the surface on the side against the flow: the first
    # hit is the short hop on the side the flow leaves on, not the crossing
    # half an orbit later that sign(sigma0) would select
    rom = Oscillator(SpParams(delta=0.05)).rom()
    m = rom.model("+")
    y0 = _correct_onto_surface(rom, m, np.array([0.3, 0.1]), 0.0)
    x0 = m.lift(y0)
    sw = sp_switching()
    gs = np.asarray(sw.grad_sigma(x0)) @ m.lift_jacobian(y0)
    sdot = gs @ m.reduced_field(0.0, y0)
    y_start = y0 - np.sign(sdot) * 1e-9 * gs / (gs @ gs)
    assert sw.sigma(m.lift(y_start)) * sdot < 0
    edge = analysis._advect_to_surface(rom, "+", y_start)
    expected = [0.005887267736383907, 4.685888374413746e-11,
                0.020518937624123282, 0.005489665214542148]
    assert np.allclose(edge, expected, rtol=0.0, atol=1e-9)


def test_surface_arc_fails_loudly_when_cut_short(monkeypatch):
    rom = Oscillator(SpParams(delta=0.05)).rom()
    full = analysis.surface_arc(rom, "+", 0.5, 21)
    assert full.shape == (21, 2)
    monkeypatch.setattr(analysis, "_trace_surface",
                        lambda *a: list(full[:15]))
    with pytest.raises(StrategyError):
        analysis.surface_arc(rom, "+", 0.5, 21)


def test_spectrum_peaks_two_tone():
    t = np.linspace(0, 20, 4001)
    x = 1.0 * np.sin(2 * np.pi * 1.3 * t) + 0.4 * np.sin(2 * np.pi * 2.9 * t)
    peaks = analysis.spectrum_peaks(t, x, n_peaks=2)
    assert np.min(np.abs(peaks - 1.3)) < 0.02
    assert np.min(np.abs(peaks - 2.9)) < 0.02


def test_detect_limit_cycle_none_for_decay():
    params = SpParams(delta=0.01)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [0.4, 0.2, 0.0, 0.0], (0.0, 40.0))
    cyc = analysis.detect_limit_cycle(traj, coord=0)
    assert cyc is None
