import numpy as np
import pytest

from pwsrom import vk_beam as vkb
from pwsrom.beam_rom import make_beam_rom
from pwsrom.core import (EventKind, IntegratorOptions, SwitchingFunction,
                         _Stepper, integrate_hybrid)
from pwsrom.poly2 import monomials
from pwsrom.rom import (NonsmoothRom, RomConfigurationError, StickingRule,
                        make_sp_rom, simulate_rom, switch_ic, switching_value)
from pwsrom.shaw_pierre import SpParams, make_system, sp_switching
from pwsrom.ssm_model import PeriodicCorrection, SsmModel


@pytest.fixture(scope="module")
def rom_01():
    return make_sp_rom(SpParams(delta=0.1))


def test_projection_identity_at_zero_friction():
    rom = make_sp_rom(SpParams(delta=0.0))
    y = np.array([0.3, -0.2])
    assert np.allclose(switch_ic(rom, y, "+"), y, atol=1e-14)


def test_projection_equals_affine_transfer(rom_01):
    # for the shared modal chart the projection strategy is exactly the
    # affine transfer y + W (x0_from - x0_to)
    rom = rom_01
    y = np.array([0.21, 0.13])
    w = rom.model_minus.chart_w
    expected = y + w @ (rom.model_plus.x0 - rom.model_minus.x0)
    got = switch_ic(rom, y, "+", strategy="projection")
    assert np.allclose(got, expected, atol=1e-13)


def test_continuity_q1_matches_coordinate(rom_01):
    rom = rom_01
    y_from = np.array([0.3, 0.1])
    y_from = _surface_state(rom, "+", y_from)
    x_from = rom.model_plus.lift(y_from)
    y_to = switch_ic(rom, y_from, "+", strategy="continuity_q1")
    x_to = rom.model_minus.lift(y_to)
    assert abs(x_to[0] - x_from[0]) < 1e-10
    assert abs(rom.switching.sigma(x_to)) < 1e-9


def test_continuity_q1q2_matches_both(rom_01):
    rom = rom_01
    y_from = _surface_state(rom, "+", np.array([0.3, 0.1]))
    x_from = rom.model_plus.lift(y_from)
    y_to = switch_ic(rom, y_from, "+", strategy="continuity_q1q2")
    x_to = rom.model_minus.lift(y_to)
    assert abs(x_to[0] - x_from[0]) < 1e-10
    assert abs(x_to[2] - x_from[2]) < 1e-10


def test_min_all_vars_beats_neighbors(rom_01):
    rom = rom_01
    y_from = _surface_state(rom, "+", np.array([0.35, -0.05]))
    x_from = rom.model_plus.lift(y_from)
    y_min = switch_ic(rom, y_from, "+", strategy="min_all_vars")
    x_min = rom.model_minus.lift(y_min)
    assert abs(rom.switching.sigma(x_min)) < 1e-9
    base = np.linalg.norm(x_min - x_from)
    # perturbations along the constraint curve cannot do better
    from pwsrom.rom import _correct_onto_surface
    for ds in (-0.02, 0.02):
        J = rom.model_minus.lift_jacobian(y_min)
        gs = np.asarray(rom.switching.grad_sigma(x_min)) @ J
        tang = np.array([-gs[1], gs[0]])
        tang /= np.linalg.norm(tang)
        y_alt = _correct_onto_surface(rom, rom.model_minus, y_min + ds * tang, 0.0)
        assert np.linalg.norm(rom.model_minus.lift(y_alt) - x_from) >= base - 1e-12


def _surface_state(rom, branch, y_guess):
    from pwsrom.rom import _correct_onto_surface
    return _correct_onto_surface(rom, rom.model(branch), y_guess, 0.0)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        make_sp_rom(SpParams(delta=0.1), ic_strategy="nope")


def test_rom_zero_friction_matches_smooth_reduced():
    rom = make_sp_rom(SpParams(delta=0.0))
    rom.sticking = None
    y0 = np.array([0.3, 0.0])
    traj = simulate_rom(rom, y0, "+", (0.0, 25.0),
                        IntegratorOptions(t_eval_dt=0.05))
    model = rom.model_plus
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    s = _Stepper(model.reduced_field, 0.0, y0, opts)
    for t_target in (5.0, 15.0, 25.0):
        while s.t < t_target:
            s.step(t_target)
        x_rom = traj.sample(np.array([t_target]))[0]
        # tolerance covers the linear resampling between recorded points;
        # the underlying flows are identical (the switch is the identity)
        assert np.allclose(x_rom, model.lift(s.x), atol=5e-5)


def test_lift_chart_roundtrip(rom_01):
    rng = np.random.default_rng(9)
    model = rom_01.model_plus
    for _ in range(100):
        y = rng.uniform(-0.15, 0.15, 2)
        assert np.linalg.norm(model.chart(model.lift(y)) - y) <= 1e-8


def test_rom_branch_validity(rom_01):
    # projection switches land off the surface by O(delta x nonlinearity),
    # so side validity holds after the entry transient of each segment
    y0 = rom_01.model_plus.chart(np.array([0.6, 0.4, 0.0, 0.0]))
    traj = simulate_rom(rom_01, y0, "+", (0.0, 40.0))
    for seg in traj.segments:
        tail = seg.x[len(seg.x) // 2:, 1]
        if seg.branch == "+":
            assert tail.min() >= -1e-8
        elif seg.branch == "-":
            assert tail.max() <= 1e-8


def test_rom_jump_scales_with_friction():
    jumps = {}
    for delta in (2e-3, 1e-3):
        rom = make_sp_rom(SpParams(delta=delta))
        rom.sticking = None
        y0 = rom.model_plus.chart(np.array([0.5, 0.35, 0.0, 0.0]))
        traj = simulate_rom(rom, y0, "+", (0.0, 10.0))
        ev = [e for e in traj.events if e.kind == EventKind.CROSSING][0]
        # jump between reconstruction before and after the switch
        k = None
        for i, seg in enumerate(traj.segments):
            if np.isclose(seg.t[-1], ev.t):
                k = i
                break
        x_pre = traj.segments[k].x[-1]
        x_post = traj.segments[k + 1].x[0]
        jumps[delta] = np.linalg.norm(x_post - x_pre)
    assert jumps[1e-3] < 0.75 * jumps[2e-3]


def test_rom_sticking_fidelity_reconstruction(rom_01):
    params = SpParams(delta=0.1)
    rom = make_sp_rom(params)
    y0 = rom.model_plus.chart(np.array([0.8, 0.5, 0.0, 0.0]))
    traj = simulate_rom(rom, y0, "+", (0.0, 60.0))
    saw = False
    for seg in traj.segments:
        if seg.branch == "sigma":
            saw = True
            assert np.abs(seg.x[:, 1]).max() <= 1e-8
    assert saw


def test_sticking_samples_are_pinned_lifts():
    # a sticking segment is recorded by one batched lift with the pinned
    # coordinate assigned; each sample equals its own lift with dq1 = 0
    rom = make_sp_rom(SpParams(delta=0.05))
    y0 = rom.model_plus.chart(np.array([0.5, 0.3, -0.2, 0.1]))
    traj = simulate_rom(rom, y0, "+", (0.0, 40.0),
                        IntegratorOptions(t_eval_dt=0.05))
    n = 0
    for prev, seg in zip(traj.segments, traj.segments[1:]):
        if seg.branch != "sigma":
            continue
        model = rom.model(prev.branch)
        assert np.all(seg.x[:, 1] == 0.0)
        for t, y, x in zip(seg.t, seg.y, seg.x):
            ref = model.lift(y, t)
            ref[1] = 0.0
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
            n += 1
    assert n > 20


def test_sticking_chart_misconfiguration_detected(rom_01):
    base = rom_01
    bad_rule = StickingRule(
        condition=lambda t, x: True,
        reduced_field=lambda t, y, m: np.array([1.0, 0.0]),
        exit_branch=lambda t, x: "+")
    rom = NonsmoothRom(model_plus=base.model_plus, model_minus=base.model_minus,
                       switching=sp_switching(), sticking=bad_rule)
    y0 = rom.model_plus.chart(np.array([0.8, 0.5, 0.0, 0.0]))
    with pytest.raises(RomConfigurationError):
        simulate_rom(rom, y0, "+", (0.0, 60.0))


def test_rom_tracks_full_model():
    params = SpParams(delta=1e-3)
    rom = make_sp_rom(params)
    sys = make_system(params)
    model = rom.model_plus
    x0 = model.lift(np.array([0.4, 0.25]))
    traj_full = integrate_hybrid(sys, x0, (0.0, 60.0))
    y0 = model.chart(x0)
    traj_rom = simulate_rom(rom, y0, "+", (0.0, 60.0))
    crossings = [e for e in traj_full.events if e.kind == EventKind.CROSSING]
    assert len(crossings) >= 4
    grid = np.linspace(crossings[0].t, 60.0, 800)
    xf = traj_full.sample(grid)
    xr = traj_rom.sample(grid)
    norm = np.linalg.norm(xf, axis=1).max()
    nmte = np.mean(np.linalg.norm(xf - xr, axis=1)) / norm
    assert nmte < 0.05


def test_rom_csv_schema(tmp_path, rom_01):
    y0 = rom_01.model_plus.chart(np.array([0.4, 0.3, 0.0, 0.0]))
    traj = simulate_rom(rom_01, y0, "+", (0.0, 5.0))
    p = tmp_path / "rom.csv"
    traj.write_csv(p)
    header = p.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,branch,xi1,xi2"


def test_precomposed_switching_value_is_sigma_of_the_lift():
    # sigma = dq1 has a unit gradient, so the precomposed polynomial holds
    # the lift's own coefficients and sums them in the lift's order
    rng = np.random.default_rng(7)
    for eps in (0.15, 0.0):
        rom = make_sp_rom(SpParams(delta=0.1, eps=eps, omega=1.1))
        sigma = rom.switching.sigma
        for branch in "+-":
            model = rom.model(branch)
            value = switching_value(rom, model)
            for _ in range(500):
                y = rng.uniform(-0.8, 0.8, 2)
                t = rng.uniform(0.0, 60.0)
                assert value(y, t) == sigma(model.lift(y, t))
                assert value(y) == sigma(model.lift(y))


def test_precomposed_belt_switching_value():
    # sigma = dq_mid - v_ground on a forced order-5 model of the beam's size
    asm = vkb.assemble_beam()
    sw = vkb.beam_switching(asm, vkb.NonsmoothVariant(kind="moving_belt",
                                                      delta=8.0))
    g, c = sw.affine
    assert c != 0.0
    n = 2 * asm.n_dof
    rng = np.random.default_rng(2)
    tangent = rng.standard_normal((n, 2))
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    model = SsmModel(
        branch="+", x0=rng.standard_normal(n), tangent=tangent,
        chart_w=np.linalg.pinv(tangent),
        nl_coeffs={p: rng.standard_normal(n) for p in monomials(2, 5)},
        rdyn={(1, 0): np.array([-0.1, -1.0]), (0, 1): np.array([1.0, -0.1])},
        correction=PeriodicCorrection(omega=659.0, eps=0.3,
                                      r_hat_1=np.array([0.1j, 0.2]),
                                      v_hat_1=amp))
    value = model.affine_switching(g, c)
    i = int(np.argmax(g))
    for _ in range(300):
        y = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(0.0, 0.1)
        terms = model._C[:, i] * model._phi(y, t)
        scale = np.abs(terms).sum() + abs(c)
        assert abs(value(y, t) - sw.sigma(model.lift(y, t))) <= 1e-15 * scale
        assert abs(value(y) - sw.sigma(model.lift(y))) <= 1e-15 * scale


def test_affine_branch_event_lifts_only_at_crossings(monkeypatch):
    rom = make_sp_rom(SpParams(delta=0.01))
    rom.sticking = None
    y0 = rom.model_plus.chart(np.array([0.5, 0.3, -0.2, 0.1]))
    lift = SsmModel.lift
    calls = []

    def counted(self, y, t=None):
        calls.append(t)
        return lift(self, y, t)

    monkeypatch.setattr(SsmModel, "lift", counted)
    traj = simulate_rom(rom, y0, "+", (0.0, 40.0))
    crossings = [ev.t for ev in traj.events if ev.kind == EventKind.CROSSING]
    assert len(crossings) >= 4
    # the projection transfer lifts once per crossing, at its time
    assert calls == crossings
    # without the affine form the event lifts at every accepted step
    calls.clear()
    rom.switching = SwitchingFunction(sigma=rom.switching.sigma,
                                      grad_sigma=rom.switching.grad_sigma)
    simulate_rom(rom, y0, "+", (0.0, 40.0))
    assert len(calls) > 10 * len(crossings)


def _is_float_pair(v):
    return type(v) is tuple and len(v) == 2 and all(type(c) is float for c in v)


def test_sticking_fields_return_float_pairs(rom_01):
    # the float-pair stepper runs sticking segments on Python floats too
    model = rom_01.model_plus
    assert _is_float_pair(rom_01.sticking.reduced_field(0.3, (0.1, -0.05), model))
    # the beam rule on a linear model over the physical midpoint chart
    asm = vkb.assemble_beam()
    n, i_q = asm.n_dof, asm.mid_dof_index
    V = np.zeros((2 * n, 2))
    W = np.zeros((2, 2 * n))
    V[i_q, 0], V[n + i_q, 1] = 2e-3, 0.5
    W[0, i_q], W[1, n + i_q] = 1 / 2e-3, 1 / 0.5
    models = [SsmModel(branch=b, x0=np.zeros(2 * n), tangent=V, chart_w=W,
                       nl_coeffs={}, rdyn={(1, 0): np.array([0.0, -1.0]),
                                           (0, 1): np.array([1.0, 0.0])},
                       source="data") for b in "+-"]
    belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    rom = make_beam_rom(asm, belt, *models)
    out = rom.sticking.reduced_field(0.0, (0.1, 0.2), models[0])
    assert _is_float_pair(out)
    assert out == (belt.v_ground / 2e-3, 0.0)
