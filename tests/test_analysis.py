import numpy as np
import pytest

from pwsrom import analysis
from pwsrom.core import EventKind, IntegratorOptions, integrate_hybrid
from pwsrom.problem import Oscillator
from pwsrom.rom import StrategyError, _correct_onto_surface
from pwsrom.shaw_pierre import SpParams, make_system, sp_elastic_term


def test_steady_state_amplitude_converges():
    # amplitude sequence settling geometrically
    state = {"k": 0}

    def step(t0, s):
        s["k"] += 1
        return s, 1.0 + 0.5 ** s["k"]

    amp, conv, n, _ = analysis.steady_state_amplitude(step, state, 1.0,
                                                      rel_change=1e-3)
    assert conv
    assert abs(amp - 1.0) < 2e-3


def test_steady_state_amplitude_cap():
    def step(t0, s):
        return s, np.random.default_rng(int(t0 * 7) % 100).uniform(1, 2)

    amp, conv, n, _ = analysis.steady_state_amplitude(step, None, 1.0,
                                                      max_periods=20)
    assert not conv
    assert n == 20


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
            step, np.zeros(4), period, rel_change=1e-4, max_periods=400)
        assert conv
        ref = linear_frf_amplitude(p, om)
        assert abs(amp - ref) / ref < 0.005


def test_frc_amplitude_linear_in_forcing():
    amps = {}
    for eps in (1e-3, 2e-3):
        p = SpParams(alpha=0.0, delta=0.0, eps=eps, omega=1.05)
        period = 2 * np.pi / 1.05
        opts = IntegratorOptions(rtol=1e-9, atol=1e-11, max_step=period / 64)
        step, _ = analysis.hybrid_period_stepper(
            lambda w: make_system(p), 1.05, 0, opts)
        amps[eps], conv, *_ = analysis.steady_state_amplitude(
            step, np.zeros(4), period, rel_change=1e-4, max_periods=400)
    assert abs(amps[2e-3] / amps[1e-3] - 2.0) < 0.01


class _Counter:
    """A stub problem with one state, which its period stepper counts up."""
    dim, amp_coord = 1, 0


def _counting_stepper(make_system, omega, amp_index, opts):
    return (lambda t0, x: (x + 1.0, 1.0)), 1.0


def test_frc_sweep_chunks_deterministic(monkeypatch):
    # a constant amplitude settles after six periods, so the end state
    # counts the periods since the chunk's cold start
    monkeypatch.setattr(analysis, "hybrid_period_stepper", _counting_stepper)
    grid = np.linspace(1.0, 2.0, 7)
    runs = [analysis.frc_sweep(_Counter(), grid, 1.0, IntegratorOptions(),
                               chunk=3, threads=threads) for threads in (1, 2)]
    for pts in runs:
        assert [p.omega for p in pts] == list(grid)
        # warm starts along a chunk, cold ones at chunk boundaries only,
        # whatever the worker count
        assert [p.state[0] for p in pts] == [6, 12, 18, 6, 12, 18, 6]
        assert all(p.converged and p.n_periods == 6 for p in pts)


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
    gs = np.asarray(rom.switching.grad_sigma(x0)) @ m.lift_jacobian(y0)
    sdot = gs @ m.reduced_field(0.0, y0)
    y_start = y0 - np.sign(sdot) * 1e-9 * gs / (gs @ gs)
    assert rom.switching.sigma(m.lift(y_start)) * sdot < 0
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
