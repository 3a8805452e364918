import dataclasses

import numpy as np
import pytest

from pwsrom import rom as rom_module
from pwsrom import shaw_pierre, ssm_model
from pwsrom import vk_beam as vkb
from pwsrom.core import (EventKind, IntegratorOptions, PiecewiseSmoothSystem,
                         _Stepper, integrate_hybrid)
from pwsrom.poly2 import monomials
from pwsrom.problem import Beam, Oscillator
from pwsrom.rom import (NonsmoothRom, RomConfigurationError, StrategyError,
                        _correct_onto_surface, _newton, _trace, _trace_surface,
                        simulate_rom, switch_ic, switching_value)
from pwsrom.shaw_pierre import SP_SURFACE, SpParams, make_system, sp_switching
from pwsrom.ssm_model import PeriodicCorrection, SsmModel
from sp_oracles import sp_sliding_field, sp_sticking_test, sp_surface_pull


@pytest.fixture(scope="module")
def rom_01():
    return Oscillator(SpParams(delta=0.1)).rom()


def test_projection_identity_at_zero_friction():
    rom = Oscillator(SpParams(delta=0.0)).rom()
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
    assert abs(sp_switching().sigma(x_to)) < 1e-9


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
    assert abs(sp_switching().sigma(x_min)) < 1e-9
    base = np.linalg.norm(x_min - x_from)
    # perturbations along the constraint curve cannot do better
    from pwsrom.rom import _correct_onto_surface
    for ds in (-0.02, 0.02):
        J = rom.model_minus.lift_jacobian(y_min)
        gs = np.asarray(sp_switching().grad_sigma(x_min)) @ J
        tang = np.array([-gs[1], gs[0]])
        tang /= np.linalg.norm(tang)
        y_alt = _correct_onto_surface(rom, rom.model_minus, y_min + ds * tang, 0.0)
        assert np.linalg.norm(rom.model_minus.lift(y_alt) - x_from) >= base - 1e-12


def _surface_state(rom, branch, y_guess):
    from pwsrom.rom import _correct_onto_surface
    return _correct_onto_surface(rom, rom.model(branch), y_guess, 0.0)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        Oscillator(SpParams(delta=0.1)).rom(ic_strategy="nope")


def test_rom_zero_friction_matches_smooth_reduced():
    rom = Oscillator(SpParams(delta=0.0)).rom()
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
        rom = Oscillator(SpParams(delta=delta)).rom()
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
    rom = Oscillator(params).rom()
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
    rom = Oscillator(SpParams(delta=0.05)).rom()
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
    # a full system that always slides, and while sliding drives dq2 with dq1
    # held: the oscillator's slow modal chart ties dq2 to dq1, so it cannot
    # follow that motion and the switching value of the raw lift drifts
    base = rom_01
    push = np.array([0.0, 0.0, 0.0, 10.0])
    system = PiecewiseSmoothSystem(
        dim=4, f_plus=lambda t, x: tuple(push + [0.0, -1.0, 0.0, 0.0]),
        f_minus=lambda t, x: tuple(push + [0.0, 1.0, 0.0, 0.0]),
        switching=sp_switching(), delta=1.0)
    rom = NonsmoothRom(model_plus=base.model_plus, model_minus=base.model_minus,
                       surface=SP_SURFACE, sticking=system)
    y0 = rom.model_plus.chart(np.array([0.8, 0.5, 0.0, 0.0]))
    with pytest.raises(RomConfigurationError):
        simulate_rom(rom, y0, "+", (0.0, 60.0))


def test_rom_tracks_full_model():
    params = SpParams(delta=1e-3)
    rom = Oscillator(params).rom()
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
        rom = Oscillator(SpParams(delta=0.1, eps=eps, omega=1.1)).rom()
        sigma = sp_switching().sigma
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
    belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    sw = vkb.beam_switching(asm, belt)
    i, level = vkb.beam_surface(asm, belt)
    assert level != 0.0
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
    value = model.lift_component(i, level)
    for _ in range(300):
        y = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(0.0, 0.1)
        terms = model._C[:, i] * model._phi(y, t)
        scale = np.abs(terms).sum() + abs(level)
        assert abs(value(y, t) - sw.sigma(model.lift(y, t))) <= 1e-15 * scale
        assert abs(value(y) - sw.sigma(model.lift(y))) <= 1e-15 * scale


def test_affine_branch_event_lifts_only_at_crossings(monkeypatch):
    lift = SsmModel.lift
    calls = []

    def counted(self, y, t=None):
        calls.append(t)
        return lift(self, y, t)

    def lift_times():
        rom = Oscillator(SpParams(delta=0.01)).rom()
        rom.sticking = None
        y0 = rom.model_plus.chart(np.array([0.5, 0.3, -0.2, 0.1]))
        calls.clear()
        traj = simulate_rom(rom, y0, "+", (0.0, 40.0))
        crossings = [ev.t for ev in traj.events if ev.kind == EventKind.CROSSING]
        assert len(crossings) >= 4
        return calls[:], crossings

    monkeypatch.setattr(SsmModel, "lift", counted)
    # the projection transfer lifts once per crossing, at its time
    lifts, crossings = lift_times()
    assert lifts == crossings
    # the same with the full model's switching function rebuilt from sigma
    # and grad_sigma alone, as a wrapper that counts sigma calls rebuilds
    # it: the ROM takes its surface from the model's declaration
    rebuilt = []
    make = shaw_pierre.sp_switching

    def wrapped():
        sw = make()
        rebuilt.append(sw)
        return type(sw)(sigma=lambda x: sw.sigma(x), grad_sigma=sw.grad_sigma)

    monkeypatch.setattr(shaw_pierre, "sp_switching", wrapped)
    assert lift_times() == (lifts, crossings)
    assert rebuilt


def _is_float_pair(v):
    return type(v) is tuple and len(v) == 2 and all(type(c) is float for c in v)


def _physical_chart_beam_models(asm):
    """Linear models over the (scaled) midpoint displacement/velocity pair."""
    n, i_q = asm.n_dof, asm.mid_dof_index
    V = np.zeros((2 * n, 2))
    W = np.zeros((2, 2 * n))
    V[i_q, 0], V[n + i_q, 1] = 2e-3, 0.5
    W[0, i_q], W[1, n + i_q] = 1 / 2e-3, 1 / 0.5
    return {b: SsmModel(branch=b, x0=np.zeros(2 * n), tangent=V, chart_w=W,
                        nl_coeffs={}, rdyn={(1, 0): np.array([0.0, -1.0]),
                                            (0, 1): np.array([1.0, 0.0])},
                        source="data") for b in "+-"}


def test_sticking_fields_return_float_pairs(rom_01):
    # the float-pair stepper runs sticking segments on Python floats too
    model = rom_01.model_plus
    assert _is_float_pair(rom_01.sliding(model, 0.3, (0.1, -0.05))[1])
    # the beam rule on a linear model over the physical midpoint chart; the
    # Filippov field holds the midpoint velocity at v_ground up to round-off
    asm = vkb.assemble_beam()
    models = _physical_chart_beam_models(asm)
    belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    rom = Beam(asm, belt).rom(models=models)
    out = rom.sliding(models["+"], 0.0, (0.1, 0.2))[1]
    assert _is_float_pair(out)
    assert out == pytest.approx((belt.v_ground / 2e-3, 0.0), rel=1e-12, abs=0.0)


def test_sticking_chart_check_sees_a_small_velocity_term():
    # a quadratic term on the pinned midpoint velocity of 2% of its linear
    # scale moves the lift by 0.01 at y = (1, 0), inside the fitted models'
    # trust radius, though by only 1e-6 where |y| <= 1e-2
    asm = vkb.assemble_beam()
    models = _physical_chart_beam_models(asm)
    nl = np.zeros(2 * asm.n_dof)
    nl[asm.n_dof + asm.mid_dof_index] = 0.01
    models["+"] = dataclasses.replace(models["+"], nl_coeffs={(2, 0): nl})
    belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    with pytest.raises(RomConfigurationError,
                       match="sticking requires the physical midpoint chart"):
        Beam(asm, belt).rom(models=models)


def test_oscillator_rule_matches_the_analytic_oracles():
    # at pinned reconstructions of random reduced states, forced and unforced,
    # on both branches: the rule sticks where the closed-form test does,
    # slides by chart_w times the closed-form in-surface field, and releases
    # onto the side of the spring, damper and forcing pull on mass 1
    rng = np.random.default_rng(11)
    for eps in (0.0, 0.15):
        params = SpParams(delta=0.1, eps=eps, omega=1.1)
        rom = Oscillator(params).rom()
        stuck = 0
        for branch in "+-":
            model = rom.model(branch)
            for _ in range(300):
                y = rng.uniform(-0.3, 0.3, 2)
                t = rng.uniform(0.0, 60.0)
                x = rom.pinned_state(model, t, y)
                assert x[1] == 0.0
                sticks = rom.sticks(model, t, y)
                assert sticks == sp_sticking_test(params, x, t)
                stuck += sticks
                lam, dy = rom.sliding(model, t, y)
                ref = model.chart_w @ sp_sliding_field(params, t, x)
                assert np.abs(np.array(dy) - ref).max() <= 1e-12
                assert (lam > 0) == (sp_surface_pull(params, x, t) > 0)
        assert stuck > 60


def test_beam_rule_slides_at_the_held_velocity():
    # on the physical midpoint chart the in-surface reduced field moves the
    # displacement coordinate at the held velocity and keeps the velocity
    # coordinate: (v_hold / tangent[i_q, 0], 0) to 1e-12 relative
    asm = vkb.assemble_beam()
    models = _physical_chart_beam_models(asm)
    rng = np.random.default_rng(4)
    coulomb = vkb.NonsmoothVariant(kind="coulomb", delta=12.0)
    belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    for variant, v_hold in ((coulomb, 0.0), (belt, belt.v_ground)):
        rom = Beam(asm, variant).rom(models=models)
        expected = (v_hold / models["+"].tangent[asm.mid_dof_index, 0], 0.0)
        for model in models.values():
            for _ in range(20):
                y = rng.uniform(-1.0, 1.0, 2)
                dy = rom.sliding(model, rng.uniform(0.0, 0.1), y)[1]
                assert dy == pytest.approx(expected, rel=1e-12, abs=0.0)


def _lifting_pair(rom, model):
    """The oracle of rom.surface_pair: sigma of one lift of the reduced pair
    and grad_sigma there times the lift Jacobian."""
    sw = sp_switching()

    def pair(y, t):
        x = model.lift(y, t)
        return sw.sigma(x), lambda: tuple(
            (np.asarray(sw.grad_sigma(x)) @ model.lift_jacobian(y)).tolist())

    return pair


@pytest.mark.parametrize("eps", [0.0, 0.15])
def test_surface_search_is_the_same_on_both_paths(eps, monkeypatch):
    # the precomposed value and slope against the lifting oracle: Newton,
    # the traced curve and both searches agree
    rom = Oscillator(SpParams(delta=0.1, eps=eps, omega=1.1)).rom()
    t = 1.7
    starts, searched = [], []
    for y_guess in ([0.3, 0.1], [-0.25, 0.2], [0.35, -0.05]):
        for branch in "+-":
            model = rom.model(branch)
            oracle = _lifting_pair(rom, model)
            y = _correct_onto_surface(rom, model, np.array(y_guess), t)
            assert type(y) is np.ndarray and y.shape == (2,)
            assert np.abs(y - _newton(oracle, y_guess, t)[0]).max() <= 1e-10
            arc = _trace_surface(rom, model, y, t, 0.01, 20)
            arc_lift = [p for p, _ in _trace(oracle, y, t, 0.01, 20)]
            assert len(arc) == len(arc_lift) == 41
            assert np.abs(np.vstack(arc) - np.vstack(arc_lift)).max() <= 1e-10
            for strategy in ("min_all_vars", "continuity_q1"):
                got = switch_ic(rom, y, branch, t, strategy)
                assert type(got) is np.ndarray
                starts.append((y, branch, strategy))
                searched.append(got)
    # the whole transfer with the search on the oracle
    monkeypatch.setattr(rom_module, "surface_pair", _lifting_pair)
    for (y, branch, strategy), got in zip(starts, searched):
        want = switch_ic(rom, y, branch, t, strategy)
        assert np.abs(got - want).max() <= 1e-10


def test_repeated_transfers_compile_nothing_new(rom_01):
    # the search's evaluators are bound once per (i, level) of a model, never
    # per transfer target
    for strategy in ("min_all_vars", "continuity_q1"):
        rom = dataclasses.replace(rom_01, ic_strategy=strategy)
        y_from = _surface_state(rom, "+", np.array([0.3, 0.1]))
        switch_ic(rom, y_from, "+")
        m = rom.model_minus
        sizes = (len(m._components), len(m._slopes),
                 ssm_model._evaluator.cache_info().currsize)
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = _surface_state(rom, "+", y_from + rng.uniform(-0.05, 0.05, 2))
            switch_ic(rom, y, "+")
        assert (len(m._components), len(m._slopes),
                ssm_model._evaluator.cache_info().currsize) == sizes


def _flat_in_dq1(model, x0_dq1):
    # model whose lift is the constant x0_dq1 in dq1, whatever the reduced state
    x0, tangent, nl = model.x0.copy(), model.tangent.copy(), dict(model.nl_coeffs)
    x0[1], tangent[1] = x0_dq1, 0.0
    for p, v in nl.items():
        nl[p] = v.copy()
        nl[p][1] = 0.0
    return dataclasses.replace(model, x0=x0, tangent=tangent, nl_coeffs=nl)


def _flat_below_zero(model):
    # sigma(lift(y)) = -0.1 everywhere: off the surface with a zero gradient,
    # so the Newton projection onto the surface has no direction to step in
    return _flat_in_dq1(model, -0.1)


def _zero_affine(model):
    # sigma(lift(y)) = 0 . y + 0: the whole chart is on the surface, so the
    # golden-section refinement has no tangent to search along
    return _flat_in_dq1(model, 0.0)


@pytest.mark.parametrize("flatten", [_flat_below_zero, _zero_affine])
def test_golden_search_refuses_a_vanishing_gradient(rom_01, flatten):
    # the target model's switching value has a zero gradient in the chart
    rom = dataclasses.replace(rom_01, model_minus=flatten(rom_01.model_minus),
                              ic_strategy="min_all_vars")
    y_from = rom.model_plus.chart(np.array([0.2, -0.1, 0.05, 0.0]))
    with pytest.raises(StrategyError, match="switching gradient vanishes"):
        switch_ic(rom, y_from, "+")
