import numpy as np
import pytest

from pwsrom.core import (BoundaryKind, ChatteringError, EventKind,
                         DegenerateDenominatorError, IntegratorOptions,
                         PiecewiseSmoothSystem, RepellingSlidingError,
                         SwitchingFunction, classify_boundary,
                         StiffnessError, _Stepper, _Stepper2, filippov_field,
                         integrate_hybrid)
from pwsrom.shaw_pierre import (SpParams, make_system, sp_sliding_field,
                                sp_sticking_test, sp_switching)


def const_system(fp, fm):
    fp = np.asarray(fp, dtype=float)
    fm = np.asarray(fm, dtype=float)
    grad = np.zeros(len(fp))
    grad[1] = 1.0
    sw = SwitchingFunction(sigma=lambda x: float(x[1]),
                           grad_sigma=lambda x: grad)
    return PiecewiseSmoothSystem(dim=len(fp), f_plus=lambda t, x: fp,
                                 f_minus=lambda t, x: fm, switching=sw,
                                 delta=1.0)


def finite_difference_gradient(sigma, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        dx = np.zeros_like(x)
        dx[i] = h * max(1.0, abs(x[i]))
        g[i] = (sigma(x + dx) - sigma(x - dx)) / (2 * dx[i])
    return g


def test_switching_gradient_matches_finite_difference():
    sw = sp_switching()
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=4)
        g_fd = finite_difference_gradient(sw.sigma, x)
        assert np.allclose(sw.grad_sigma(x), g_fd, rtol=1e-6, atol=1e-9)


def test_classify_crossing_positive():
    sys = const_system([0, 1.0], [0, 2.0])
    cls = classify_boundary(sys, [5.0, 0.0])
    assert cls.kind == BoundaryKind.CROSSING
    assert cls.direction == 1


def test_classify_attracting_sliding():
    sys = const_system([0, -1.0], [0, 2.0])
    cls = classify_boundary(sys, [0.0, 0.0])
    assert cls.kind == BoundaryKind.ATTRACTING_SLIDING


def test_classify_repelling_sliding():
    sys = const_system([0, 1.0], [0, -1.0])
    cls = classify_boundary(sys, [0.0, 0.0])
    assert cls.kind == BoundaryKind.REPELLING_SLIDING


def test_classify_requires_surface_state():
    sys = const_system([0, 1.0], [0, 2.0])
    with pytest.raises(ValueError):
        classify_boundary(sys, [0.0, 0.5])


def test_classification_stable_under_tolerance():
    # states with |a+ a-| well above the tangential window stay crossings
    sys = const_system([0, 1e-3], [0, 2e-3])
    cls = classify_boundary(sys, [0.0, 0.0])
    assert cls.kind == BoundaryKind.CROSSING


def test_filippov_symmetric_combination():
    sw = SwitchingFunction(sigma=lambda x: float(x[1]),
                           grad_sigma=lambda x: np.array([0.0, 1.0]))
    sys = PiecewiseSmoothSystem(dim=2,
                                f_plus=lambda t, x: np.array([1.0, -1.0]),
                                f_minus=lambda t, x: np.array([1.0, 1.0]),
                                switching=sw, delta=1.0)
    lam, fs = filippov_field(sys, [0.0, 0.0])
    assert np.isclose(lam, 0.0)
    assert np.allclose(fs, [1.0, 0.0])


def test_filippov_tangency_by_construction():
    rng = np.random.default_rng(7)
    params = SpParams(delta=0.3)
    sys = make_system(params)
    grad = np.array([0.0, 1.0, 0.0, 0.0])
    count = 0
    for _ in range(500):
        x = rng.normal(size=4)
        x[1] = 0.0
        cls = classify_boundary(sys, x)
        if cls.kind != BoundaryKind.ATTRACTING_SLIDING:
            continue
        lam, fs = filippov_field(sys, x)
        count += 1
        assert -1.0 < lam < 1.0
        assert abs(grad @ fs) <= 1e-12 * (1.0 + np.linalg.norm(fs))
    assert count > 20


def test_filippov_degenerate_denominator():
    sys = const_system([0, 1.0, 3.0], [0, 1.0, -2.0])
    with pytest.raises(DegenerateDenominatorError):
        filippov_field(sys, [0.0, 0.0, 0.0])


def test_filippov_matches_pinned_mass_dynamics():
    # independent oracle: inside the surface the first mass is stuck and the
    # second one is a linear oscillator; the convex combination must match it
    params = SpParams(delta=0.4)
    sys = make_system(params)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        x = rng.uniform(-0.3, 0.3, size=4)
        x[1] = 0.0
        if not sp_sticking_test(params, x):
            continue
        lam, fs = filippov_field(sys, x)
        oracle = sp_sliding_field(params, 0.0, x)
        assert np.allclose(fs, oracle, atol=1e-12)
        checked += 1
    assert checked > 30


def test_smooth_limit_single_segment():
    params = SpParams(delta=0.0)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [0.4, 0.3, -0.1, 0.2], (0.0, 30.0))
    assert len(traj.events) == 0
    assert len(traj.segments) == 1
    assert np.linalg.norm(traj.x_end) < 0.05


def test_hybrid_refinement_oracle():
    # a run at 100x tighter tolerances fixes the event schedule
    params = SpParams(delta=0.05)
    sys = make_system(params)
    x0 = [1.0, 0.5, 0.0, 0.0]
    coarse = integrate_hybrid(sys, x0, (0.0, 20.0),
                              IntegratorOptions(rtol=1e-9, atol=1e-11))
    fine = integrate_hybrid(sys, x0, (0.0, 20.0),
                            IntegratorOptions(rtol=1e-11, atol=1e-13))
    assert len(coarse.events) == len(fine.events)
    kinds = [e.kind for e in coarse.events]
    assert EventKind.STICK_ENTRY in kinds
    for ec, ef in zip(coarse.events, fine.events):
        assert ec.kind == ef.kind
        assert abs(ec.t - ef.t) < 1e-6
    # terminal sticking pins the first-mass velocity to the surface
    last = coarse.segments[-1]
    assert last.branch == "sigma"
    assert np.abs(last.x[:, 1]).max() <= 1e-10


def test_event_states_on_surface():
    params = SpParams(delta=0.05)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 20.0))
    assert traj.events
    for ev in traj.events:
        assert abs(ev.x[1]) <= 1e-10


def test_refinement_consistency_event_times():
    params = SpParams(delta=0.05)
    sys = make_system(params)
    a = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 16.0),
                         IntegratorOptions(rtol=1e-9, atol=1e-11))
    b = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 16.0),
                         IntegratorOptions(rtol=5e-10, atol=5e-12))
    for ea, eb in zip(a.events, b.events):
        assert abs(ea.t - eb.t) < 10 * 1e-9 * max(1.0, ea.t) * 100


def test_sliding_segment_invariants():
    params = SpParams(delta=0.05)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 40.0))
    grad = np.array([0.0, 1.0, 0.0, 0.0])
    saw_sigma = False
    for seg in traj.segments:
        if seg.branch != "sigma":
            continue
        saw_sigma = True
        # the final sample of a released sliding segment sits exactly on the
        # lambda = +-1 exit boundary; the invariant concerns interior samples
        for x in seg.x[:-1:5]:
            assert abs(x[1]) <= 1e-10
            lam, fs = filippov_field(sys, x)
            assert -1.0 < lam < 1.0
            assert abs(grad @ fs) <= 1e-10 * (1.0 + np.linalg.norm(fs))
    assert saw_sigma


def test_branch_side_invariant():
    params = SpParams(delta=0.05)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 20.0))
    for seg in traj.segments:
        if seg.branch == "+":
            assert seg.x[:, 1].min() >= -1e-10
        elif seg.branch == "-":
            assert seg.x[:, 1].max() <= 1e-10


def test_segments_share_junction_states():
    params = SpParams(delta=0.05)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 20.0))
    for a, b in zip(traj.segments[:-1], traj.segments[1:]):
        assert np.allclose(a.x[-1], b.x[0], atol=1e-9)
        assert np.isclose(a.t[-1], b.t[0])


def test_repelling_sliding_refused():
    sys = const_system([0.0, 1.0], [0.0, -1.0])
    with pytest.raises(RepellingSlidingError) as ei:
        integrate_hybrid(sys, [0.0, 0.0], (0.0, 1.0))
    assert ei.value.x.shape == (2,)


def test_chattering_guard():
    grad = np.array([0.0, 1.0])
    sw = SwitchingFunction(sigma=lambda x: float(x[1]),
                           grad_sigma=lambda x: grad)

    def wiggle(t, x):
        # x2(t) = 0.5 + sin(200 t) crosses zero twice per fast period
        return np.array([1.0, 200.0 * np.cos(200.0 * t)])

    sys = PiecewiseSmoothSystem(dim=2, f_plus=wiggle, f_minus=wiggle,
                                switching=sw, delta=1.0)
    with pytest.raises(ChatteringError):
        integrate_hybrid(sys, [0.0, 0.5], (0.0, 50.0),
                         IntegratorOptions(max_events=40))


def test_tangential_grazing_micro_step():
    # dx2 = x1^3 with a dip of 1e-13 below the surface: the located hit has
    # |grad sigma . f| inside the tangential window
    grad = np.array([0.0, 1.0])
    sw = SwitchingFunction(sigma=lambda x: float(x[1]),
                           grad_sigma=lambda x: grad)

    def f(t, x):
        return np.array([1.0, x[0] ** 3])

    sys = PiecewiseSmoothSystem(dim=2, f_plus=f, f_minus=f, switching=sw,
                                delta=1.0)
    a = 0.5
    dip = 1e-13
    x0 = [-a, a ** 4 / 4 - dip]
    # the dip lasts ~8e-4 time units; cap the step so a sample falls inside
    traj = integrate_hybrid(sys, x0, (0.0, 1.5),
                            IntegratorOptions(max_step=2e-4))
    kinds = [e.kind for e in traj.events]
    assert EventKind.TANGENTIAL in kinds
    assert np.isclose(traj.t_end, 1.5)
    assert traj.x_end[1] > 1e-3    # recovered after the graze


def test_zero_delta_smooth_limit_equivalence():
    params = SpParams(delta=0.0)
    sysv = make_system(params)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    assert np.allclose(sysv.f_plus(0.0, x), sysv.f_minus(0.0, x))


def test_trajectory_csv_roundtrip(tmp_path):
    params = SpParams(delta=0.05)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 5.0))
    p = tmp_path / "traj.csv"
    pe = tmp_path / "events.csv"
    traj.write_csv(p, pe)
    rows = p.read_text().splitlines()
    assert rows[0] == "t,x1,x2,x3,x4,branch"
    assert len(rows) == sum(len(s.t) for s in traj.segments) + 1
    erows = pe.read_text().splitlines()
    assert erows[0] == "t_event,kind,x1,x2,x3,x4"
    assert len(erows) == len(traj.events) + 1
    branches = {r.rsplit(",", 1)[1] for r in rows[1:]}
    assert branches <= {"1", "-1", "0"}


def _assert_uniform_grid(traj, dt):
    """Samples that are not event or span-end times lie on k * dt exactly."""
    special = {float(ev.t) for ev in traj.events}
    special |= {float(traj.segments[0].t[0]), float(traj.t_end)}
    ks = []
    for t in traj.times():
        if float(t) in special:
            continue
        k = int(round(t / dt))
        assert t == k * dt, (t, k)
        ks.append(k)
    assert ks == list(range(1, len(ks) + 1))


def test_sample_grid_uniform_across_events():
    sys = make_system(SpParams(delta=0.01))
    traj = integrate_hybrid(sys, [0.5, 0.3, -0.2, 0.1], (0.0, 10.0),
                            IntegratorOptions(t_eval_dt=0.1, record_steps=False))
    assert any(ev.kind == EventKind.CROSSING for ev in traj.events)
    _assert_uniform_grid(traj, 0.1)


def test_rom_sample_grid_uniform_across_events():
    from pwsrom.rom import make_sp_rom, simulate_rom
    rom = make_sp_rom(SpParams(delta=0.01))
    y0 = rom.model("+").chart(np.array([0.5, 0.3, -0.2, 0.1]))
    traj = simulate_rom(rom, y0, "+", (0.0, 40.0),
                        IntegratorOptions(t_eval_dt=0.1, record_steps=False))
    kinds = {ev.kind for ev in traj.events}
    assert {EventKind.CROSSING, EventKind.STICK_ENTRY, EventKind.STICK_EXIT} <= kinds
    _assert_uniform_grid(traj, 0.1)


def test_stepper_dense_output_spans_each_accepted_step():
    # accepted steps swap two stage buffers; the dense output must keep the
    # stages of the last accepted step, and the next step's FSAL stage must
    # not overwrite them
    f = make_system(SpParams(delta=0.05, eps=0.15, omega=1.1)).f_plus
    st = _Stepper(f, 0.0, np.array([0.5, 0.3, -0.2, 0.1]),
                  IntegratorOptions(rtol=1e-8, atol=1e-10))
    for _ in range(50):
        assert st.step(np.inf)
        assert np.array_equal(st.interpolate(st.t_old), st.x_old)
        err = np.linalg.norm(st.interpolate(st.t) - st.x)
        assert err <= 1e-12 * np.linalg.norm(st.x)


def _counted_reduced_field():
    """The forced two-state reduced field of the oscillator ROM, counting
    its calls."""
    from pwsrom.rom import make_sp_rom
    model = make_sp_rom(SpParams(eps=0.15, omega=1.0)).model("+")
    calls = [0]

    def f(t, y):
        calls[0] += 1
        return model.reduced_field(t, y)

    return f, calls


def test_float_pair_stepper_takes_the_numpy_steppers_steps():
    # both steppers run the same tableau and step control; only the order of
    # the stage sums differs. The error estimate is a cancelling sum, so that
    # round-off moves each new step size by about 1e-11 relative and free
    # runs drift apart slowly: they must reject at the same steps and stay
    # within 1e-9 in time. Started from the numpy stepper's state and its
    # accepted step size, each step must agree to 1e-12.
    f, calls = _counted_reduced_field()
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    a = _Stepper(f, 0.0, np.array([0.3, -0.2]), opts)
    b = _Stepper2(f, 0.0, (0.3, -0.2), opts)
    for _ in range(200):
        n0 = calls[0]
        assert a.step(np.inf)
        n_a, n0 = calls[0] - n0, calls[0]
        assert b.step(np.inf)
        assert calls[0] - n0 == n_a
        assert abs(b.t - a.t) <= 1e-9 * abs(a.t)
    assert a.t > 10.0 and n_a >= 6

    a = _Stepper(f, 0.0, np.array([0.3, -0.2]), opts)
    for _ in range(200):
        t, x, k1 = a.t, a.x, tuple(a.K[0])
        assert a.step(np.inf)
        b.t, b.x, b.h, b.k1 = t, tuple(x), a.h_old, k1
        n0 = calls[0]
        assert b.step(np.inf) and calls[0] - n0 == 6
        assert abs(b.t - a.t) <= 1e-12 * abs(a.t)
        assert np.linalg.norm(np.subtract(b.x, a.x)) <= 1e-12 * np.linalg.norm(a.x)
        t_mid = t + 0.37 * a.h_old
        assert (np.linalg.norm(np.subtract(b.interpolate(t_mid), a.interpolate(t_mid)))
                <= 1e-12 * np.linalg.norm(a.x))


def test_float_pair_stepper_dense_output_and_fsal():
    f, calls = _counted_reduced_field()
    st = _Stepper2(f, 0.0, (0.3, -0.2), IntegratorOptions(rtol=1e-8, atol=1e-10))
    assert calls[0] == 1
    for _ in range(200):
        n0 = calls[0]
        assert st.step(np.inf)
        # six new stages per attempt: the first is the last one of the
        # previous step (FSAL)
        assert (calls[0] - n0) % 6 == 0
        assert st.interpolate(st.t_old) == st.x_old
        err = np.linalg.norm(np.subtract(st.interpolate(st.t), st.x))
        assert err <= 1e-12 * np.linalg.norm(st.x)
    # a step that is accepted at once costs exactly six field calls
    n = [0]

    def g(t, y):
        n[0] += 1
        return 1.0, -y[1]

    free = _Stepper2(g, 0.0, (0.0, 1.0), IntegratorOptions(first_step=1e-3))
    assert free.step(np.inf) and n[0] == 1 + 6


def test_float_pair_stepper_step_underflow_names_time():
    f, _ = _counted_reduced_field()
    for cls, x0 in ((_Stepper2, (0.3, -0.2)), (_Stepper, np.array([0.3, -0.2]))):
        st = cls(f, 2.5, x0, IntegratorOptions(first_step=1e-3, min_step=1e-2))
        with pytest.raises(StiffnessError, match="t=2.5"):
            st.step(10.0)
