import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pwsrom import core
from pwsrom.core import (BoundaryKind, ChatteringError, EventKind,
                         DegenerateDenominatorError, IntegratorOptions,
                         PiecewiseSmoothSystem, RepellingSlidingError,
                         SwitchingFunction, classify_boundary,
                         StiffnessError, _float_stepper, _integrate_segment,
                         _Stepper, _stepper, filippov_field, integrate_hybrid)
from pwsrom.problem import Oscillator
from pwsrom.rom import simulate_rom
from pwsrom.shaw_pierre import SpParams, make_system, sp_switching
from sp_oracles import sp_sliding_field, sp_sticking_test


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


def _array_fields(params):
    """The oscillator with its fields returning ndarrays (numpy path)."""
    sys = make_system(params)
    return dataclasses.replace(
        sys, f_plus=lambda t, x: np.array(sys.f_plus(t, x)),
        f_minus=lambda t, x: np.array(sys.f_minus(t, x)))


def test_filippov_field_takes_the_fields_type_to_the_bit():
    # sigma = dq1 has a unit gradient, so the float sums are exact as the
    # BLAS products are, for tuple and ndarray states alike
    params = SpParams(delta=0.3, eps=0.15, omega=1.1)
    floats, arrays = make_system(params), _array_fields(params)
    rng = np.random.default_rng(8)
    for _ in range(2000):
        x = rng.normal(size=4)
        x[1] = 0.0
        t = rng.uniform(0.0, 20.0)
        lam, fs = filippov_field(arrays, x, t)
        assert type(fs) is np.ndarray
        for state in (x, tuple(x.tolist())):
            lam_f, fs_f = filippov_field(floats, state, t)
            assert type(fs_f) is tuple and all(type(v) is float for v in fs_f)
            assert lam_f == lam and fs_f == tuple(fs.tolist())


def test_sliding_runs_on_the_float_stepper_with_the_numpy_steppers_calls(
        monkeypatch):
    # the full oscillator's sliding segments step in floats; against the
    # same run with ndarray fields (numpy stages throughout) they take the
    # same steps and the same field calls outside the release bisections,
    # whose iteration counts may differ by round-off
    params = SpParams(delta=0.05)
    made = _recorded_steppers(monkeypatch)
    bisect, calls = core._bisect, [0, 0]

    def outside(*args, **kwargs):
        n = calls[0]
        try:
            return bisect(*args, **kwargs)
        finally:
            calls[1] += calls[0] - n

    monkeypatch.setattr(core, "_bisect", outside)
    runs = []
    for sys in (make_system(params), _array_fields(params)):
        f_plus, f_minus = sys.f_plus, sys.f_minus

        def counted(f):
            def field(t, x):
                calls[0] += 1
                return f(t, x)
            return field

        calls[:] = [0, 0]
        made.clear()
        traj = integrate_hybrid(dataclasses.replace(
            sys, f_plus=counted(f_plus), f_minus=counted(f_minus)),
            [1.0, 0.5, 0.0, 0.0], (0.0, 40.0))
        runs.append(([seg.branch for seg in traj.segments],
                     [len(seg.t) for seg in traj.segments],
                     calls[0] - calls[1], [type(s) for s, _ in made]))
    (branches, steps, calls_f, types_f), (_, steps_a, calls_a, types_a) = runs
    assert branches.count("sigma") == 2
    assert set(types_f) == {_float_stepper(4)} and set(types_a) == {_Stepper}
    assert steps == steps_a and calls_f == calls_a


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


def test_next_step_is_not_shrunk_by_the_cut_last_step():
    # a run that ends 1e-9 after one of its own steps takes the same steps
    # up to there and then a 1e-9 step; the step it reports for going on is
    # the one it had proposed before that cut, which the longer run took
    sys = make_system(SpParams(delta=0.0))
    x0 = [0.4, 0.3, -0.1, 0.2]
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    long = integrate_hybrid(sys, x0, (0.0, 30.0), opts)
    t = long.segments[0].t
    k = len(t) // 2
    short = integrate_hybrid(sys, x0, (0.0, t[k] + 1e-9), opts)
    assert np.array_equal(short.segments[0].t[:k + 1], t[:k + 1])
    assert short.next_step >= t[k + 1] - t[k] > 1e-3
    assert long.next_step > 0.0


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


def test_write_rows_matches_csv_writer_bytes(tmp_path):
    # the bytes of csv.writer over repr(float(v)), the earlier writer
    import csv
    rows = np.array([[-0.0, 1e-300, 1.7976931348623157e308, np.nan],
                     [0.1, -2.5e-17, 6.02214076e23, -np.inf],
                     [1.0, 5e-324, -1e16, 123456789.123456789]])
    core.write_rows(tmp_path / "new.csv", ["t", "y1", "y2", "y3"], rows.tolist())
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["t", "y1", "y2", "y3"]] + [[repr(float(v)) for v in r] for r in rows])
    assert (tmp_path / "new.csv").read_text() == (tmp_path / "old.csv").read_text()


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
    rom = Oscillator(SpParams(delta=0.01)).rom()
    y0 = rom.model("+").chart(np.array([0.5, 0.3, -0.2, 0.1]))
    traj = simulate_rom(rom, y0, "+", (0.0, 40.0),
                        IntegratorOptions(t_eval_dt=0.1, record_steps=False))
    kinds = {ev.kind for ev in traj.events}
    assert {EventKind.CROSSING, EventKind.STICK_ENTRY, EventKind.STICK_EXIT} <= kinds
    _assert_uniform_grid(traj, 0.1)


def _sample_whole(traj, t_grid):
    """The resampling of every segment concatenated, stably sorted and
    interpolated: the oracle for HybridTrajectory.sample."""
    t_all, x_all = traj.times(), traj.states()
    order = np.argsort(t_all, kind="stable")
    t_all, x_all = t_all[order], x_all[order]
    return np.column_stack([np.interp(t_grid, t_all, x_all[:, j])
                            for j in range(x_all.shape[1])])


def _sticking_trajectories():
    """A full and a reduced oscillator run with crossings and sliding, and
    segments with a gap between them, as after a tangential micro-step."""
    full = integrate_hybrid(make_system(SpParams(delta=0.05)),
                            [1.0, 0.5, 0.0, 0.0], (0.0, 40.0))
    rom = Oscillator(SpParams(delta=0.05)).rom(ic_strategy="continuity_q1")
    reduced = simulate_rom(rom, rom.model("+").chart(np.array([0.5, 0.3, -0.2, 0.1])),
                           "+", (0.0, 40.0), IntegratorOptions(t_eval_dt=0.1))
    rng = np.random.default_rng(0)
    gap = core.HybridTrajectory([
        core.Segment(b, t0 + np.linspace(0.0, 1.0, 5), rng.normal(size=(5, 2)))
        for b, t0 in (("+", 0.0), ("-", 1.5), ("+", 2.5))])
    return full, reduced, gap


@pytest.mark.parametrize("grid", ["one segment", "event to event", "whole run",
                                  "event times", "across a gap"])
def test_sample_is_the_whole_trajectorys_resampling_to_the_bit(grid):
    for traj in _sticking_trajectories():
        # the gapped trajectory has no events: its segment ends stand in
        events = [ev.t for ev in traj.events] or [1.0, 2.5]
        seg = max(traj.segments, key=lambda s: len(s.t))
        t_grid = {"one segment": np.linspace(seg.t[1], seg.t[-2], 257),
                  "event to event": np.linspace(events[0], events[-1], 257),
                  "whole run": np.linspace(-1.0, traj.t_end + 1.0, 1001),
                  "event times": np.array(events),
                  "across a gap": np.linspace(1.1, 1.4, 7)}[grid]
        got, want = traj.sample(t_grid), _sample_whole(traj, t_grid)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _traced_peak(fn):
    """(fn(), the peak of Python and numpy allocations while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_the_last_segment_reads_only_the_last_segments():
    # 200 segments of 100 samples of 18 states, 3 MB
    rng = np.random.default_rng(1)
    traj = core.HybridTrajectory([
        core.Segment("+", k + np.linspace(0.0, 1.0, 100),
                     rng.normal(size=(100, 18))) for k in range(200)])
    size = sum(s.t.nbytes + s.x.nbytes for s in traj.segments)
    t_grid = np.linspace(199.0, 200.0, 257)
    out, peak = _traced_peak(lambda: traj.sample(t_grid))
    assert out.tobytes() == _sample_whole(traj, t_grid).tobytes()
    assert peak <= 0.05 * size


def test_recording_holds_a_segment_once():
    # ndarray states, 40,000 samples, most of them in one sliding segment
    # that grows from the recorder's first buffer
    traj, peak = _traced_peak(lambda: integrate_hybrid(
        _array_fields(SpParams(delta=0.05)), [0.5, 0.3, -0.2, 0.1],
        (0.0, 400.0), IntegratorOptions(rtol=1e-8, atol=1e-10, t_eval_dt=0.01)))
    rows = [len(s.t) for s in traj.segments]
    assert max(rows) > 0.9 * sum(rows)
    assert peak <= 1.3 * sum(s.t.nbytes + s.x.nbytes for s in traj.segments)


def _list_recorder(opts, t_grid0, t0, x0, observe=None):
    """The recorder as a list of samples stacked at the end: the oracle for
    core._segment_recorder's buffers."""
    ts, xs, dt = [t0], [np.asarray(x0).copy()], opts.t_eval_dt
    k = int(np.floor((t0 - t_grid0) / dt)) if dt else 0
    while dt and t_grid0 + k * dt <= t0:
        k += 1

    def flush_grid(stepper, t_limit):
        nonlocal k
        while dt and t_grid0 + k * dt <= t_limit:
            ts.append(t_grid0 + k * dt)
            xs.append(stepper.interpolate(ts[-1]))
            k += 1

    def record_step(stepper):
        flush_grid(stepper, stepper.t)
        if opts.record_steps:
            ts.append(stepper.t)
            xs.append(stepper.x)

    def finish(stepper, t_f, x_f):
        flush_grid(stepper, t_f)
        if ts[-1] >= t_f - 1e-15 * max(1.0, abs(t_f)):
            del ts[-1], xs[-1]
        ts.append(t_f)
        xs.append(np.asarray(x_f).copy())
        T, X = np.array(ts), np.vstack(xs)
        if observe is None:
            return core.Segment(branch=None, t=T, x=X)
        return core.Segment(branch=None, t=T, x=observe(T, X), y=X)

    return record_step, finish


@pytest.mark.parametrize("dt", [None, 0.1])
def test_recorded_samples_are_the_listed_samples_to_the_bit(monkeypatch, dt):
    # float and numpy steppers, full and reduced segments, sliding included
    runs = [lambda opts, fields=fields: integrate_hybrid(
        fields(SpParams(delta=0.05)), [1.0, 0.5, 0.0, 0.0], (0.0, 40.0), opts)
            for fields in (make_system, _array_fields)] + [_rom_sticking_run]
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10, t_eval_dt=dt)
    got = [run(opts) for run in runs]
    monkeypatch.setattr(core, "_segment_recorder", _list_recorder)
    for run, traj in zip(runs, got):
        want = run(opts)
        assert len(traj.segments) == len(want.segments) > 3
        for a, b in zip(traj.segments, want.segments):
            for part in ("t", "x", "y"):
                pa, pb = getattr(a, part), getattr(b, part)
                assert (pa is None and pb is None) or \
                    (pa.shape == pb.shape and pa.tobytes() == pb.tobytes())


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
    model = Oscillator(SpParams(eps=0.15, omega=1.0)).rom().model("+")
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
    b = _float_stepper(2)(f, 0.0, (0.3, -0.2), opts)
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
    st = _float_stepper(2)(f, 0.0, (0.3, -0.2),
                           IntegratorOptions(rtol=1e-8, atol=1e-10))
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

    free = _float_stepper(2)(g, 0.0, (0.0, 1.0), IntegratorOptions(first_step=1e-3))
    assert free.step(np.inf) and n[0] == 1 + 6


def test_field_return_type_picks_the_stepper_without_an_extra_call():
    # a tuple field runs on the float stepper of its length, an ndarray field
    # on numpy stages; the value that decided is the first stage
    f, calls = _counted_reduced_field()
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    assert type(_stepper(f, 0.0, np.array([0.3, -0.2]), opts)) is _float_stepper(2)
    assert calls[0] == 1
    assert type(_stepper(lambda t, x: -x, 0.0, np.ones(3), opts)) is _Stepper
    calls[0] = 0
    seg, hit, _ = _integrate_segment(f, 0.0, np.array([0.3, -0.2]), 5.0, opts, 0.0)
    assert not hit and seg.t[-1] == 5.0
    # six new stages per attempted step, and one at the start
    assert calls[0] > 1 and (calls[0] - 1) % 6 == 0


def test_float_pair_stepper_step_underflow_names_time():
    f, _ = _counted_reduced_field()
    for cls, x0 in ((_float_stepper(2), (0.3, -0.2)),
                    (_Stepper, np.array([0.3, -0.2]))):
        st = cls(f, 2.5, x0, IntegratorOptions(first_step=1e-3, min_step=1e-2))
        with pytest.raises(StiffnessError, match="t=2.5"):
            st.step(10.0)


class _Stepper2:
    """Reference for the generated float stepper of length 2: the DP5 step on
    one pair of Python floats, unrolled by hand.

    f(t, (y1, y2)) returns a pair; the state x is a pair of floats. The stage
    sums run left to right over the nonzero tableau entries, and the last
    stage is evaluated at the new state (its row of the tableau is the
    fifth-order weights). The entries of the tableau are written out as
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



def _forced_duffing(t, y):
    y1, y2 = y
    return y2, -0.1 * y2 - y1 - y1 ** 3 + 0.3 * math.cos(1.2 * t)


def test_generated_pair_stepper_is_the_hand_unrolled_one():
    # the same expressions in the same order: equal to the bit, step by step
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    ref = _Stepper2(_forced_duffing, 0.0, (0.3, -0.2), opts)
    gen = _float_stepper(2)(_forced_duffing, 0.0, (0.3, -0.2), opts)
    for _ in range(500):
        assert ref.step(np.inf) and gen.step(np.inf)
        assert (gen.t, gen.x, gen.h, gen.h_old) == (ref.t, ref.x, ref.h, ref.h_old)
        for s in (0.0, 0.37, 1.0):
            t = ref.t_old + s * ref.h_old
            assert gen.interpolate(t) == ref.interpolate(t)
    assert ref.t > 25.0


def test_float_stepper_agrees_with_numpy_stepper_on_the_oscillator():
    # over one forced period the free runs take the same number of steps and
    # end in the same state to 1e-12 (their step sizes drift apart at
    # round-off, as on float pairs); started from the numpy stepper's state
    # and step size, each step and its dense output agree to 1e-12
    params = SpParams(delta=0.05, eps=0.15, omega=1.1)
    f = make_system(params).f_plus
    period = 2 * np.pi / params.omega
    x0, opts = np.array([0.5, 0.3, -0.2, 0.1]), IntegratorOptions()
    a, b = _Stepper(f, 0.0, x0, opts), _float_stepper(4)(f, 0.0, tuple(x0), opts)
    n_a = n_b = 0
    while a.step(period):
        n_a += 1
    while b.step(period):
        n_b += 1
    assert n_a == n_b > 50 and b.t == a.t == period
    scale = np.linalg.norm(a.x)
    assert np.linalg.norm(np.subtract(b.x, a.x)) <= 1e-12 * scale

    a = _Stepper(f, 0.0, x0, opts)
    while True:
        t, x, k1 = a.t, a.x, tuple(a.K[0])
        if not a.step(period):
            break
        b.t, b.x, b.h, b.k1 = t, tuple(x), a.h_old, k1
        assert b.step(period) and abs(b.t - a.t) <= 1e-12 * a.t
        assert np.linalg.norm(np.subtract(b.x, a.x)) <= 1e-12 * scale
        t_mid = t + 0.37 * a.h_old
        assert (np.linalg.norm(np.subtract(b.interpolate(t_mid), a.interpolate(t_mid)))
                <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# step size across segments


def _recorded_steppers(monkeypatch):
    """(stepper, its first step) of every segment started from now on."""
    made, make = [], core._stepper

    def recording(f, t, x, opts, h=None):
        stepper = make(f, t, x, opts, h)
        made.append((stepper, stepper.h))
        return stepper

    monkeypatch.setattr(core, "_stepper", recording)
    return made


def _full_sticking_run(opts):
    return integrate_hybrid(make_system(SpParams(delta=0.05)),
                            [1.0, 0.5, 0.0, 0.0], (0.0, 40.0), opts)


def _rom_sticking_run(opts):
    rom = Oscillator(SpParams(delta=0.05)).rom(ic_strategy="continuity_q1")
    y0 = rom.model("+").chart(np.array([0.5, 0.3, -0.2, 0.1]))
    return simulate_rom(rom, y0, "+", (0.0, 40.0), opts)


@pytest.mark.parametrize("run", [_full_sticking_run, _rom_sticking_run])
@pytest.mark.parametrize("max_step", [np.inf, 0.05])
def test_segment_after_an_event_starts_at_the_last_accepted_step(
        monkeypatch, run, max_step):
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10, max_step=max_step)
    made = _recorded_steppers(monkeypatch)
    traj = run(opts)
    kinds = {ev.kind for ev in traj.events}
    assert {EventKind.CROSSING, EventKind.STICK_ENTRY,
            EventKind.STICK_EXIT} <= kinds
    assert len(made) == len(traj.segments) == len(traj.events) + 1
    assert made[0][1] == min(opts.first_step, max_step)
    for (before, _), (_, first) in zip(made, made[1:]):
        assert first == before.h_old <= max_step
        assert first != opts.first_step
    # the next call starts afresh at first_step
    n = len(made)
    run(opts)
    assert made[n][1] == min(opts.first_step, max_step)


def test_carried_step_is_capped_by_max_step():
    opts = IntegratorOptions(max_step=1e-3)
    f = make_system(SpParams()).f_plus
    assert _stepper(f, 0.0, (0.1, 0.0, 0.0, 0.0), opts, 0.5).h == 1e-3
    assert _stepper(f, 0.0, (0.1, 0.0, 0.0, 0.0), opts, 2e-4).h == 2e-4
    assert _stepper(f, 0.0, np.zeros(4), opts).h == opts.first_step
