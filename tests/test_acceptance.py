"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 check the published reference constants as far as they agree
with each other: the coefficient tables are printed rounded or truncated, and
the three published values of the slow eigenvalue contradict one another, so
those tests assert the contradiction and the computed values against the
consistent delta = 0.1 entries; the "b" tests pin where the other constants
come from. Criteria that still fail state their measured cause in their
docstring and failure message. Run with `pytest -s tests/test_acceptance.py`
to see every report line; every test here carries the `acceptance` marker, so
`pytest -m "not acceptance"` runs the module suite alone.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import Pool

import numpy as np
import pytest

from pwsrom import analysis, beam_rom, spectral
from pwsrom import ssm_analytic as sa
from pwsrom import ssm_data as sd
from pwsrom import vk_beam as vkb
from pwsrom.cli import _sp_frc_full_chunk, _sp_frc_rom_chunk
from pwsrom.core import (BoundaryKind, EventKind, IntegratorOptions,
                         classify_boundary, filippov_field, integrate_hybrid)
from pwsrom.rom import make_sp_rom, simulate_rom
from pwsrom.shaw_pierre import (SpParams, make_system, sp_elastic_term,
                                sp_shifted)
from pwsrom.ssm_model import SsmModel

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------- 1


def _sig_digits(ref):
    """Significant-digit count of a printed reference string."""
    return len(ref.lstrip("-").split("e")[0].replace(".", "").lstrip("0"))


def _truncate_to_sig_digits(x, ref):
    """Truncate x toward zero to the significant-digit count of `ref`."""
    if x == 0.0:
        return 0.0
    scale = 10.0 ** (_sig_digits(ref) - 1 - math.floor(math.log10(abs(x))))
    return math.trunc(x * scale) / scale


def test_criterion_01_table_reproduction_strict():
    """Every printed entry is the computed coefficient at its printed
    precision: 56 of 64 are rounded, and the other 8 (h+-(0,2)[2],
    h+-(1,2)[2], r+-(1,1)[2], r+-(2,1)[2]) are truncated, e.g. -2.85294e-3
    printed as -2.8e-3 and -8.18058e-4 as -8.1e-4. So a strict (rounded)
    match tops out at 56/64; a scan of delta over [0, 0.3] in 5e-4 steps never
    exceeds it, while "rounded or truncated" holds for 64/64 at delta = 0.1
    (60 at 0.0998 and 0.1005, 54 at 0.101). The check is tighter than
    1b's one-ulp closeness, which allows either direction."""
    t0 = time.time()
    params = SpParams(delta=0.1)
    strict = matched = total = 0
    unmatched = []
    for (kind, branch), tab in sa.reference_tables().items():
        split = sa.modal_split(params, branch)
        h = sa.solve_invariance(split, 3)
        vals = h if kind == "h" else sa.solve_reduced_dynamics(split, h)
        for p, refs in tab.items():
            for comp in (0, 1):
                val = float(vals[p][comp])
                total += 1
                is_strict = sa.compare_to_reference(val, refs[comp])["strict"]
                truncated = np.isclose(_truncate_to_sig_digits(val, refs[comp]),
                                       float(refs[comp]), rtol=1e-9,
                                       atol=1e-300)
                strict += is_strict
                matched += is_strict or truncated
                if not (is_strict or truncated):
                    unmatched.append(f"{kind}{branch}{p}[{comp + 1}]")
    el = time.time() - t0
    ok = report(1, matched == total,
                f"rounded or truncated printed-precision matches "
                f"{matched}/{total} (strict rounded {strict}/{total}); "
                f"runtime {el:.2f}s < 1s: {el < 1.0}")
    assert el < 1.0
    assert ok, f"entries not reproduced at printed precision: {unmatched}"


def test_criterion_01b_table_fidelity_within_one_ulp():
    params = SpParams(delta=0.1)
    strict = ulp = total = 0
    for (kind, branch), tab in sa.reference_tables().items():
        split = sa.modal_split(params, branch)
        h = sa.solve_invariance(split, 3)
        vals = h if kind == "h" else sa.solve_reduced_dynamics(split, h)
        for p, refs in tab.items():
            for comp in (0, 1):
                res = sa.compare_to_reference(float(vals[p][comp]), refs[comp])
                total += 1
                strict += res["strict"]
                ulp += res["within_one_ulp"]
    ok = strict == 56 and ulp == total == 64
    report("1b", ok, f"{strict}/64 strict and {ulp}/64 within one printed ulp")
    assert ok


# ---------------------------------------------------------------------- 2


PRINTED_SLOW = -0.0741 + 1.0027j
PRINTED_FAST = -0.3759 + 1.6812j


def _printed_interval(ref):
    """Values that round to the printed string `ref` (half an ulp around)."""
    v = float(ref)
    half = 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - _sig_digits(ref) + 1)
    return v - half, v + half


def _slow_imag_intervals():
    """Printed-precision intervals of the slow eigenvalue's imaginary part
    from the three published sources: the spectrum, the master block a_y and
    the linear reduced-dynamics entries r(1,0), r(0,1) (the columns of a_y by
    construction)."""
    r_lin = sa.REFERENCE_REDUCED_DYNAMICS_PLUS[(0, 1)][0]
    return {"spectrum": _printed_interval(f"{PRINTED_SLOW.imag:.4f}"),
            "a_y": _printed_interval(f"{PRINTED_AY[0, 1]:.4f}"),
            "r_linear": _printed_interval(r_lin)}


def _disjoint(intervals):
    iv = sorted(intervals)
    return all(a[1] < b[0] for a, b in zip(iv, iv[1:]))


def _linear_entries_match(a_y):
    """Strict printed-precision match of the columns of a_y against the
    published delta = 0.1 linear reduced-dynamics entries."""
    tab = sa.REFERENCE_REDUCED_DYNAMICS_PLUS
    return all(sa.compare_to_reference(float(a_y[i, j]), tab[p][i])["strict"]
               for j, p in enumerate([(1, 0), (0, 1)]) for i in (0, 1))


def test_criterion_02_spectrum_printed_constants():
    """The published constants give three different slow eigenvalues: the
    spectrum -0.0741+1.0027i, the master block a_y -0.0789+-1.0342i and the
    linear reduced-dynamics entries -0.074+-1.004i. Their imaginary parts'
    printed-precision intervals are pairwise disjoint, so no single
    computation matches all three. The computed delta = 0.1 value
    (-0.0744+1.0044i) matches the reduced-dynamics table; the printed spectrum
    is the delta = 0 value (2b) and the printed a_y the offset-0.2901 value
    (3b)."""
    t0 = time.time()
    lin = spectral.decompose(sp_shifted(SpParams(delta=0.1), "+").a_tilde)
    e1 = spectral.subspace(lin, [0])
    quot = spectral.relative_spectral_quotient(lin, e1)
    lam_s, lam_f = lin.eigenvalues[0], lin.eigenvalues[2]
    contradictory = _disjoint(_slow_imag_intervals().values())
    a_slow = np.array([[lam_s.real, lam_s.imag], [-lam_s.imag, lam_s.real]])
    lin_ok = _linear_entries_match(a_slow)
    el = time.time() - t0
    ok = report(2, contradictory and lin_ok and quot == 5,
                f"published slow-eigenvalue intervals pairwise disjoint: "
                f"{contradictory}; computed slow {lam_s:.4f} matches the "
                f"published delta=0.1 linear entries -0.074+-1.004i: {lin_ok} "
                f"(printed spectrum {PRINTED_SLOW} is the delta=0 value); "
                f"fast {lam_f:.4f}; quotient {quot} (=5: {quot == 5}); "
                f"{el:.2f}s")
    assert quot == 5
    assert contradictory, "published slow eigenvalues are mutually consistent"
    assert lin_ok, f"slow eigenvalue {lam_s} does not reproduce r(1,0), r(0,1)"


def test_criterion_02b_spectrum_verified():
    # independent characteristic-polynomial oracle at delta = 0.1 plus the
    # quotient; also pins that the printed constants equal the delta=0 values
    params = SpParams(delta=0.1)
    lin = spectral.decompose(sp_shifted(params, "+").a_tilde)
    q0 = abs(sp_shifted(params, "+").q0)
    coeffs = [1.0, 0.9, 4.09 + 1.5 * q0**2, 1.2 + 0.9 * q0**2, 3.0 + 3 * q0**2]
    for lam in lin.eigenvalues:
        assert abs(np.polyval(coeffs, lam)) < 1e-10
    lin0 = spectral.decompose(sp_shifted(SpParams(delta=0.0), "+").a_tilde)
    assert abs(lin0.eigenvalues[0] - PRINTED_SLOW) < 6e-5
    assert abs(lin0.eigenvalues[2] - PRINTED_FAST) < 6e-5
    e1 = spectral.subspace(lin, [0])
    ok = spectral.relative_spectral_quotient(lin, e1) == 5
    report("2b", ok, "eigenvalues verified against the characteristic "
                     "polynomial; printed constants match the zero-friction "
                     "matrix; quotient = 5")
    assert ok


# ---------------------------------------------------------------------- 3


PRINTED_AY = np.array([[-0.0789, 1.0342], [-1.0342, -0.0789]])
PRINTED_AZ = np.array([[-0.3711, 1.6987], [-1.6987, -0.3711]])
PRINTED_RY = np.array([0.9968, -0.0761])
PRINTED_RZ = np.array([-0.8278, 0.1808])
PRINTED_Q = np.array([0.1645, 0.3070, 0.0441, -0.4828])


def _printed_r_ratio_interval():
    """Ratios r2/r1 that every printed nonlinear reduced-dynamics row admits
    at its printed precision; each such row is a multiple of r_y."""
    lo, hi = -np.inf, np.inf
    for p, (a, b) in sa.REFERENCE_REDUCED_DYNAMICS_PLUS.items():
        if sum(p) < 2:
            continue
        ratios = [y / x for x in _printed_interval(a)
                  for y in _printed_interval(b)]
        lo, hi = max(lo, min(ratios)), min(hi, max(ratios))
    return lo, hi


def test_criterion_03_modal_blocks_printed_constants():
    """The printed split constants reproduce at a fixed-point offset of
    0.2901 (3b), not at delta = 0.1, and they contradict the published
    delta = 0.1 reduced-dynamics table: r(1,0) and r(0,1) are the columns of
    a_y by construction, yet the printed a_y and the printed linear entries
    have disjoint printed-precision intervals. At delta = 0.1 the computed a_y
    matches those linear entries strictly, and the computed r_y ratio lies in
    the ratio interval the printed nonlinear rows admit."""
    split = sa.modal_split(SpParams(delta=0.1), "+")
    errs = {
        "a_y": np.abs(split.a_y - PRINTED_AY).max(),
        "a_z": np.abs(split.a_z - PRINTED_AZ).max(),
        "r_y": np.abs(split.r_y - PRINTED_RY).max(),
        "r_z": np.abs(split.r_z - PRINTED_RZ).max(),
        "q": np.abs(split.q_argument - PRINTED_Q).max(),
    }
    iv = _slow_imag_intervals()
    contradictory = _disjoint([iv["a_y"], iv["r_linear"]])
    lin_ok = _linear_entries_match(split.a_y)
    lo, hi = _printed_r_ratio_interval()
    ratio = split.r_y[1] / split.r_y[0]
    ratio_ok = lo <= ratio <= hi
    ok = contradictory and lin_ok and ratio_ok
    report(3, ok, "printed a_y vs printed r(1,0), r(0,1) intervals disjoint: "
           f"{contradictory}; computed a_y matches the linear entries: "
           f"{lin_ok}; r_y ratio {ratio:.4f} in printed-row interval "
           f"[{lo:.4f}, {hi:.4f}]: {ratio_ok}; max |computed - printed| per "
           "item (printed at offset 0.2901, see 3b): "
           + ", ".join(f"{k}={v:.2e}" for k, v in errs.items()))
    assert contradictory, "printed a_y is consistent with the printed r table"
    assert lin_ok, f"a_y {split.a_y.tolist()} does not reproduce r(1,0), r(0,1)"
    assert ratio_ok, f"r_y ratio {ratio} outside [{lo}, {hi}]"


def test_criterion_03b_modal_blocks_reproduce_at_implied_offset():
    q0 = 0.29010
    params = SpParams(delta=(q0**3 + 3 * q0) / 2.0)
    split = sa.modal_split(params, "-")
    errs = [np.abs(split.a_y - PRINTED_AY).max(),
            np.abs(split.a_z - PRINTED_AZ).max(),
            np.abs(split.r_y - PRINTED_RY).max(),
            np.abs(split.r_z - PRINTED_RZ).max(),
            np.abs(split.q_argument - PRINTED_Q).max()]
    ok = max(errs) < 5e-4
    report("3b", ok, f"all printed split constants reproduce at offset {q0} "
                     f"(max dev {max(errs):.1e})")
    assert ok


# ---------------------------------------------------------------------- 4


def test_criterion_04_filippov_tangency():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    # friction oscillator states
    sys_sp = make_system(SpParams(delta=0.3))
    grad_sp = np.array([0.0, 1.0, 0.0, 0.0])
    while checked < 6000:
        x = rng.uniform(-0.6, 0.6, 4)
        x[1] = 0.0
        cls = classify_boundary(sys_sp, x)
        if cls.kind != BoundaryKind.ATTRACTING_SLIDING:
            continue
        lam, fs = filippov_field(sys_sp, x)
        assert -1.0 < lam < 1.0
        assert abs(grad_sp @ fs) <= 1e-10 * (1.0 + np.linalg.norm(fs))
        checked += 1
    # beam states (dry friction and belt variants)
    asm = vkb.assemble_beam()
    n = asm.n_dof
    for kind, v_off in (("coulomb", 0.0), ("moving_belt", 0.1)):
        variant = vkb.NonsmoothVariant(kind=kind, delta=12.0)
        sys_b = vkb.make_beam_system(asm, variant)
        grad = sys_b.switching.grad_sigma(np.zeros(2 * n))
        got = 0
        while got < 2000:
            x = np.concatenate([rng.normal(0.0, 2e-6, n),
                                rng.normal(0.0, 1e-3, n)])
            x[n + asm.mid_dof_index] = v_off
            cls = classify_boundary(sys_b, x)
            if cls.kind != BoundaryKind.ATTRACTING_SLIDING:
                continue
            lam, fs = filippov_field(sys_b, x)
            assert -1.0 < lam < 1.0
            assert abs(grad @ fs) <= 1e-10 * (1.0 + np.linalg.norm(fs))
            got += 1
        checked += got
    ok = checked >= 10_000
    report(4, ok, f"{checked} attracting-sliding states across both models: "
                  f"tangency <= 1e-10 scaled, lambda in (-1,1); "
                  f"{time.time() - t0:.1f}s")
    assert ok


# ---------------------------------------------------------------------- 5


def test_criterion_05_invariance_error_decay():
    t0 = time.time()
    split = sa.modal_split(SpParams(delta=0.1), "+")
    h = sa.solve_invariance(split, 3)
    vals = [sa.invariance_error(split, h, rho) for rho in (0.4, 0.2, 0.1, 0.05)]
    el = time.time() - t0
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    ratio = vals[2] / vals[1]
    ok = decreasing and ratio <= 0.5 and el < 1.0
    report(5, ok, "E_inv(rho) = " + ", ".join(f"{v:.2e}" for v in vals)
           + f"; E(0.1)/E(0.2) = {ratio:.3f} <= 0.5; {el:.2f}s < 1s")
    assert ok


# ---------------------------------------------------------------------- 6


def test_criterion_06_rom_tracking_and_strategies():
    t0 = time.time()
    params = SpParams(delta=1e-3)
    sys = make_system(params)
    rom0 = make_sp_rom(params)
    x0 = rom0.model_plus.lift(np.array([0.42, 0.22]))
    T = 40.0
    full = integrate_hybrid(sys, x0, (0.0, T))
    ncross = sum(1 for e in full.events if e.kind == EventKind.CROSSING)
    grid = np.linspace(full.events[0].t, T, 900)
    xf = full.sample(grid)
    norm = np.linalg.norm(xf, axis=1).max()
    tail = np.linspace(T - 2 * np.pi, T, 120)
    xf_tail = full.sample(tail)
    nmte_proj = None
    end_err = {}
    for strat in ("projection", "min_all_vars", "continuity_q1",
                  "continuity_q1q2"):
        rom = make_sp_rom(params, ic_strategy=strat)
        tr = simulate_rom(rom, rom.model_plus.chart(x0), "+", (0.0, T))
        end_err[strat] = float(np.mean(np.linalg.norm(
            xf_tail - tr.sample(tail), axis=1)))
        if strat == "projection":
            nmte_proj = float(np.mean(np.linalg.norm(
                xf - tr.sample(grid), axis=1)) / norm)
    best = min(end_err, key=end_err.get)
    el = time.time() - t0
    ok = ncross >= 4 and nmte_proj < 0.05 and best == "projection" and el < 10.0
    report(6, ok, f"{ncross} crossings; projection NMTE {nmte_proj:.4f} < 5%; "
                  f"end-time errors {({k: round(v, 6) for k, v in end_err.items()})}; "
                  f"lowest: {best}; {el:.1f}s < 10s")
    assert ok


# ---------------------------------------------------------------------- 7


def _frc_cfg(delta, with_rom=True):
    return {"model": "shaw_pierre",
            "shaw_pierre": {"delta": delta},
            "frc": {"omega_min": 0.8, "omega_max": 1.2, "n_points": 81,
                    "eps": 0.15, "max_periods": 400, "chunk": 16,
                    "rtol": 1e-8, "with_rom": with_rom}}


def _run_frc_grid(cfg, worker, threads=2):
    grid = np.linspace(0.8, 1.2, 81)
    tasks = [(cfg, grid[i:i + 16].tolist()) for i in range(0, 81, 16)]
    with Pool(threads) as pool:
        parts = pool.map(worker, tasks)
    return [p for part in parts for p in part]


def test_criterion_07_frc_fidelity():
    """Known failure, cause measured, no program fault found. At delta = 0.05
    the ROM overestimates the amplitude at all 81 (converged) points; the
    error varies smoothly from 2.1% at resonance to 7.9% at omega = 1.2.
    With alpha = 0 each branch SSM is exactly its slow eigenspace and the
    errors are still 4.7%, 2.65% and 7.8% at omega = 0.8, 1.0 and 1.2, so
    neither the SSM coefficients nor their order cause it: the error enters
    at the switch. At omega = 1.2 the IC-transfer rules give projection 7.9%,
    continuity_q1 0.9%, min_all_vars 14.5% and continuity_q1q2 186%. Which
    rule the method prescribes for forced runs is not settled by the paper's
    abstract or the README; criterion 6 selects projection on unforced
    decay."""
    t0 = time.time()
    peak = {}
    worst = 0.0
    details = []
    for delta in (1e-3, 5e-3, 1e-2, 5e-2):
        cfg = _frc_cfg(delta)
        full = _run_frc_grid(cfg, _sp_frc_full_chunk)
        romp = _run_frc_grid(cfg, _sp_frc_rom_chunk)
        errs = [abs(pr.amplitude - pf.amplitude) / pf.amplitude
                for pf, pr in zip(full, romp) if pf.converged and pr.converged]
        conv = sum(1 for pf, pr in zip(full, romp)
                   if pf.converged and pr.converged)
        worst_d = max(errs)
        worst = max(worst, worst_d)
        peak[delta] = max(p.amplitude for p in full if p.converged)
        details.append(f"delta={delta:g}: {conv}/81 converged, worst "
                       f"rel err {worst_d:.4f}")
    full0 = _run_frc_grid(_frc_cfg(0.0), _sp_frc_full_chunk)
    peak0 = max(p.amplitude for p in full0 if p.converged)
    el = time.time() - t0
    ok = worst < 0.05 and peak[5e-2] < peak0 and el < 600.0
    report(7, ok, "; ".join(details)
           + f"; peak(delta=5e-2) {peak[5e-2]:.4f} < peak(0) {peak0:.4f}; "
           f"{el:.0f}s < 600s")
    assert ok, ("worst ROM error at delta=0.05 enters at the branch switch "
                "(alpha=0 eigenspace ROM: 4.7%/2.65%/7.8% at omega "
                "0.8/1.0/1.2); at omega=1.2 projection gives 7.9%, "
                "continuity_q1 0.9%: the forced-run IC-transfer rule is "
                "unsettled")


# ---------------------------------------------------------------------- 8


def test_criterion_08_poincare_structure():
    """Known failure: the clause compares two different definitions of the
    edge. The full-model edge is the iterate after the smallest-margin
    crossing that still has a crossing after it; in this setup such crossings
    keep a margin of at least 0.0157 (1.57 delta) and the edge's own margin is
    3.2e-4. The reduced edge is the reduced-flow image of an averaged
    zero-margin point, with its own margin 7.2e-3. No reduced candidate comes
    within 0.10 of the full edge: the arc root gives 0.161, the centerline
    root 0.274 and the advected edge 0.224. Which definition is meant is not
    settled by the paper's abstract or the README, and both outputs are pinned
    by the benchmark references."""
    t0 = time.time()
    params = SpParams(delta=0.01)
    sys = make_system(params)
    rom = make_sp_rom(params)
    margin = lambda x: abs(sp_elastic_term(params, x)) - params.delta
    ths = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    ics = [rom.model("+").lift(0.3 * np.array([np.cos(t), np.sin(t)]))
           for t in ths]
    ics += [-x for x in ics]
    data = analysis.poincare_map(sys, ics, (0.0, 250.0), margin, skip=3)
    approx = analysis.approx_invariant_curve(rom, margin, span=0.55, n=401)
    sel = [0, 2, 3]
    # iterates near the arcs
    pts = data.invariant_points[:, sel]
    arcs = np.vstack([approx["arcs"]["+"][:, sel], approx["arcs"]["-"][:, sel]])
    dmax = max(np.min(np.linalg.norm(arcs - p, axis=1)) for p in pts)
    # mirror symmetry of the full edges (mirrored IC set)
    mirror = np.abs(data.edge_plus + data.edge_minus).max()
    # reduced-only edges vs full edges
    e_rel = {}
    for side in ("plus", "minus"):
        fe = getattr(data, f"edge_{side}")
        re_ = approx[f"edge_{side}"]
        e_rel[side] = (np.linalg.norm((re_ - fe)[sel])
                       / np.linalg.norm(fe[sel]))
    el = time.time() - t0
    ok = (dmax <= 0.05 and mirror <= 1e-6
          and all(v <= 0.10 for v in e_rel.values()) and el < 60.0)
    report(8, ok, f"max iterate-arc distance {dmax:.4f} <= 0.05; edge mirror "
                  f"residual {mirror:.1e} <= 1e-6; reduced-edge rel errs "
                  f"{({k: round(v, 3) for k, v in e_rel.items()})} (<= 0.10); "
                  f"{el:.0f}s < 60s")
    assert ok, ("full edge = iterate after the last smallest-margin crossing "
                "(own margin 3.2e-4, crossing margins >= 1.57 delta); reduced "
                "edge = reduced-flow image of a zero-margin point (own margin "
                "7.2e-3): different definitions, best reduced candidate 0.161")


# ---------------------------------------------------------------------- 9


def test_criterion_09_nonautonomous_correction():
    t0 = time.time()
    params = SpParams(delta=1e-2, eps=1e-1, omega=1.0)
    sysF = make_system(params)
    x0 = np.array([0.0, 0.0, 0.76, 0.76])
    T = 2 * np.pi / params.omega
    opts = IntegratorOptions(max_step=T / 64)
    full = integrate_hybrid(sysF, x0, (0.0, 140.0), opts)
    grid = np.linspace(120.0, 140.0, 2000)
    xf = full.sample(grid)
    amp_full = 0.5 * (xf[:, 0].max() - xf[:, 0].min())
    rom = make_sp_rom(params)
    y0 = rom.model("+").chart(x0)
    rtraj = simulate_rom(rom, y0, "+", (0.0, 140.0), opts)
    xr = rtraj.sample(grid)
    amp_rom = 0.5 * (xr[:, 0].max() - xr[:, 0].min())
    rel = abs(amp_rom - amp_full) / amp_full
    el = time.time() - t0
    ok = rel < 0.05 and el < 30.0
    report(9, ok, f"steady amplitude full {amp_full:.4f} vs reduced "
                  f"{amp_rom:.4f} (rel {rel:.4f} < 5%); {el:.0f}s < 30s")
    assert ok


# ---------------------------------------------------------------------- 10


def test_criterion_10_beam_linearization():
    t0 = time.time()
    props = vkb.BeamProperties()
    asm = vkb.assemble_beam(props)
    ref = 22.373 / props.length**2 * np.sqrt(
        props.young_modulus * props.second_moment
        / (props.density * props.area))
    w1 = asm.natural_frequencies()[0]
    rel = abs(w1 - ref) / ref
    el = time.time() - t0
    ok = rel < 0.05 and el < 1.0
    report(10, ok, f"omega1 {w1:.2f} vs closed form {ref:.2f} "
                   f"(rel {rel:.4f} < 5%); {el:.2f}s < 1s")
    assert ok


# ---------------------------------------------------------------------- 11


@pytest.fixture(scope="module")
def beam_assembly():
    return vkb.assemble_beam()


def test_criterion_11_data_driven_fits(beam_assembly):
    t0 = time.time()
    asm = beam_assembly
    variant = vkb.NonsmoothVariant(kind="coulomb", delta=12.0)
    models, _ = beam_rom.fit_branch_models(asm, variant, order_m=5, order_r=5,
                                           chart="modal", static_load=12e3,
                                           trim_fraction=0.20, t_span=(0.0, 0.3))
    in_sample = max(m.meta["in_sample_nmte"] for m in models.values())

    # held-out decay reconstruction through the reduced dynamics
    model = models["+"]
    q_h = vkb.static_deflection(asm, 8e3)
    t, Y = sd.smooth_integrate(
        lambda tt, x: vkb.beam_field(asm, variant, "+", tt, x),
        np.concatenate([q_h, np.zeros(9)]), (0.0, 0.4), 1e-4,
        IntegratorOptions(rtol=1e-8, atol=1e-10, first_step=1e-6))
    k0 = int(0.12 * len(t))
    from pwsrom.core import _Stepper
    y = model.chart(Y[k0])
    st = _Stepper(model.reduced_field, t[k0], y,
                  IntegratorOptions(rtol=1e-10, atol=1e-12, first_step=1e-6))
    rec = [model.lift(y)]
    for tt in t[k0 + 1:]:
        while st.t < tt:
            st.step(tt)
        rec.append(model.lift(st.interpolate(tt) if st.t > tt else st.x))
    held_out = sd.nmte_arrays(Y[k0:], np.vstack(rec))

    # oscillator fits against the analytic oracle, aligned chart
    params = SpParams(delta=0.1)
    ana = sa.build_analytic_model(params, "+")
    Vt, _ = np.linalg.qr(ana.tangent)
    angles = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    ics = [ana.lift(0.35 * np.array([np.cos(a), np.sin(a)])) for a in angles]
    from pwsrom.shaw_pierre import sp_field
    data = sd.generate_training(lambda tt, x: sp_field(params, "+", tt, x),
                                ics, (0, 50), 0.02)
    fit = sd.fit_manifold(data, Vt, order=3, x0=ana.x0)
    dyn = sd.fit_dynamics(data, fit, order=3)
    _, aligned = sd.rechart(ana, Vt.T)
    worst_sp = 0.0
    for p, v in aligned.nl_coeffs.items():
        worst_sp = max(worst_sp, np.linalg.norm(fit.nl_dict()[p] - v)
                       / np.linalg.norm(v))
    for p, v in aligned.rdyn.items():
        worst_sp = max(worst_sp, np.linalg.norm(dyn.rdyn_dict()[p] - v)
                       / np.linalg.norm(v))
    el = time.time() - t0
    ok = in_sample < 0.02 and held_out < 0.05 and worst_sp < 0.05 and el < 120.0
    report(11, ok, f"beam in-sample NMTE {in_sample:.2e} < 2%; held-out "
                   f"{held_out:.2e} < 5%; oscillator coefficients within "
                   f"{worst_sp:.3f} of the analytic oracle (< 5%); "
                   f"{el:.0f}s < 120s")
    assert ok


# ---------------------------------------------------------------------- 12


def _beam_forced_rom(asm, variant, models, omega, eps_scale=1.0, amp=35e3):
    forcing = vkb.mid_forcing(asm, amp * eps_scale, omega)
    f_hat = np.zeros(2 * asm.n_dof)
    f_hat[asm.n_dof:] = asm.minv @ vkb.mid_forcing(asm, amp, omega)(0.0)
    out = {}
    for b in "+-":
        m = models[b]
        x0b = vkb.branch_fixed_point(asm, variant, b)
        A = vkb.branch_jacobian(asm, variant, b, x0b)
        corr = sd.nonmodal_forcing_correction(A, m, f_hat, eps_scale, omega)
        out[b] = SsmModel(branch=b, x0=m.x0, tangent=m.tangent,
                          chart_w=m.chart_w, nl_coeffs=m.nl_coeffs,
                          rdyn=m.rdyn, correction=corr, source=m.source,
                          meta=dict(m.meta), trust_radius=1.15)
    return beam_rom.make_beam_rom(asm, variant, out["+"], out["-"],
                                  forcing=forcing)


def _beam_full_stepper(asm, variant, omega, amp=35e3):
    forcing = vkb.mid_forcing(asm, amp, omega)
    sys = vkb.make_beam_system(
        asm, variant or vkb.NonsmoothVariant(kind="coulomb", delta=0.0),
        forcing)
    period = 2 * np.pi / omega
    opts = IntegratorOptions(rtol=1e-6, atol=1e-9, max_step=period / 64,
                             first_step=1e-6)
    return analysis.hybrid_period_stepper(lambda w: sys, omega,
                                          asm.mid_dof_index, opts)


def _beam_full_point(asm, variant, omega, state, amp=35e3, max_periods=260,
                     fixed_periods=None):
    step, period = _beam_full_stepper(asm, variant, omega, amp)
    x0 = state if state is not None else np.zeros(2 * asm.n_dof)
    if fixed_periods:
        amp_v = np.nan
        for k in range(fixed_periods):
            x0, amp_v = step(k * period, x0)
        return amp_v, True, fixed_periods, x0
    return analysis.steady_state_amplitude(step, x0, period,
                                           max_periods=max_periods)


def _beam_rom_point(asm, variant, models, omega, state, amp=35e3,
                    ramp=20, max_periods=260):
    period = 2 * np.pi / omega
    opts = IntegratorOptions(rtol=1e-8, atol=1e-11, max_step=period / 64,
                             first_step=1e-5)
    if state is None:
        state = (np.zeros(2), "-")
        for k in range(ramp):
            rom_k = _beam_forced_rom(asm, variant, models, omega,
                                     eps_scale=(k + 1) / ramp, amp=amp)
            traj = simulate_rom(rom_k, state[0], state[1],
                                (k * period, (k + 1) * period), opts)
            last = traj.segments[-1]
            b = last.branch if last.branch != "sigma" else state[1]
            state = (last.y[-1], b)
    rom = _beam_forced_rom(asm, variant, models, omega, amp=amp)
    step = analysis.rom_period_stepper(rom, asm.mid_dof_index, opts)
    return analysis.steady_state_amplitude(step, state, period,
                                           max_periods=max_periods)


def _beam_rom_sweep(asm, variant, band):
    """Fit the branch models of `variant` and run the reduced model's warm
    up-sweep from rest over `band`. Returns (amplitude, converged) per point.
    """
    models, _ = beam_rom.fit_branch_models(asm, variant, chart="physical",
                                           static_load=60e3, trim_fraction=0.10,
                                           t_span=(0.0, 0.3))
    state = None
    out = []
    for om in band:
        a, conv, _, state = _beam_rom_point(asm, variant, models, om, state)
        out.append((a, conv))
    return out


def _fold_probe(asm, variant, omega, state, threshold, amp=35e3,
                rel_change=1e-6, consecutive=5, max_periods=260):
    """Continue the warm state `state` at `omega` period by period.

    Returns (jumped, amplitude, state): jumped once the amplitude falls below
    `threshold`; otherwise the probe ends when the amplitude has settled to
    `rel_change` for `consecutive` periods, or after `max_periods`. The
    settling test is strict on purpose: just past a fold the response lingers
    near the lost branch, changing by less than 1e-5 per period for dozens of
    periods before it drops (seen 75 periods ahead of the jump 0.005 rad/s
    past the plain beam's fold), so a looser test reports the lingering
    transient as a response on the branch.
    """
    step, period = _beam_full_stepper(asm, variant, omega, amp)
    prev = None
    streak = 0
    for k in range(max_periods):
        state, a = step(k * period, state)
        if a < threshold:
            return True, a, state
        if prev is not None and abs(a - prev) <= rel_change * a:
            streak += 1
            if streak >= consecutive:
                break
        else:
            streak = 0
        prev = a
    return False, a, state


def _fold_bracket(asm, variant, grid_coarse, amp=35e3):
    """Bracket the fold of the brute-force response on a warm down-sweep.

    Sweeps `grid_coarse` (descending) warm from rest at its first point. The
    largest response must lie at an interior grid point; the next grid point
    is where the response has jumped off the branch. Returns [om_off, om_on,
    state_on, threshold]: the response leaves the branch at om_off and stays
    on it at om_on, state_on is the state there, and threshold lies halfway
    across the jump.
    """
    state = None
    amps, states = [], []
    for om in grid_coarse:
        a, _, _, state = _beam_full_point(asm, variant, om, state, amp)
        amps.append(a)
        states.append(state)
    k = int(np.argmax(amps))
    assert 0 < k < len(grid_coarse) - 1, (
        f"peak not bracketed: the largest response lies on the window edge "
        f"{grid_coarse[k]:.2f} rad/s")
    return [grid_coarse[k + 1], grid_coarse[k], states[k],
            0.5 * (amps[k] + amps[k + 1])]


def _bisect_folds(pool, asm, variants, pending, resolution, amp=35e3):
    """Fold frequencies of the warm down-sweeps of `variants`, bisected together.

    `pending` is the result, submitted to `pool`, of `_fold_bracket` for each
    variant. Each round bisects every bracket wider than `resolution`, each
    probe starting from the last state still on that variant's branch, and
    runs the variants' probes in parallel on `pool`. The rounds stop once the
    brackets no longer overlap, which orders the folds, or once every bracket
    is narrower than `resolution`. Returns one (om_off, om_on) per variant.
    """
    brackets = pending.get()
    while max(b[0] for b in brackets) < min(b[1] for b in brackets):
        wide = [i for i, b in enumerate(brackets) if b[1] - b[0] > resolution]
        if not wide:
            break
        mids = [0.5 * (brackets[i][0] + brackets[i][1]) for i in wide]
        probes = pool.starmap(_fold_probe, [
            (asm, variants[i], om, brackets[i][2], brackets[i][3], amp)
            for i, om in zip(wide, mids)])
        for i, om, (jumped, _, state) in zip(wide, mids, probes):
            if jumped:
                brackets[i][0] = om
            else:
                brackets[i][1], brackets[i][2] = om, state
    return [(b[0], b[1]) for b in brackets]


def test_criterion_12_beam_forced_response(beam_assembly):
    """Three clauses on the 4-element beam at 35 kN midpoint forcing.

    ROM fidelity: warm up-sweeps of the full and reduced Coulomb models over
    a sub-fold band. Friction vs frictionless: the frictionless beam runs the
    same warm up-sweep from rest, and both are continued for the same fixed
    horizon at the interior band point of the largest Coulomb response.
    Soft impact: both beams have at least two coexisting responses between
    1.017 and 1.055 omega1. From rest at 1.055 omega1 they land on one whose
    amplitude falls steadily as omega decreases, so no peak lies in a window
    starting there; from rest at 1.07 omega1 (as from 1.10 omega1) they land
    on one that rises to a fold near 673.7 rad/s, which `_fold_bracket`
    brackets on a 2.5 rad/s grid and `_bisect_folds` bisects until the two
    beams' brackets no longer overlap. (A 5 rad/s grid is not fine enough:
    its soft-impact state at the bracket's upper end falls off the branch
    0.4 rad/s above the fold that the 2.5 rad/s grid finds.) The fold search
    and the reduced model's fit and sweep run on two worker processes while
    this process runs the full-model sweeps.
    """
    t0 = time.time()
    asm = beam_assembly
    w1 = asm.natural_frequencies()[0]
    coulomb = vkb.NonsmoothVariant(kind="coulomb", delta=12.0)  # delta-tilde 1e-3
    assert abs(vkb.normalized_delta(asm, coulomb) - 1e-3) < 1e-12
    # soft impact: resonance fold frequency moves up
    soft = vkb.NonsmoothVariant(kind="soft_impact", delta=1792.0)  # 5e-4
    assert abs(vkb.normalized_delta(asm, soft) - 5e-4) < 1e-12
    coarse = np.arange(1.07 * w1, 1.015 * w1, -2.5)
    resolution = 0.01
    # sub-fold band, warm up-sweeps with identical grids
    band = np.linspace(0.92 * w1, 1.03 * w1, 12)
    variants = [soft, None]
    with Pool(2) as pool, ThreadPoolExecutor(1) as coordinator:
        # the fold search is the longest chain, so its sweeps go first
        brackets = pool.starmap_async(_fold_bracket,
                                      [(asm, v, coarse) for v in variants])
        rom = pool.apply_async(_beam_rom_sweep, (asm, coulomb, band))
        folds = coordinator.submit(_bisect_folds, pool, asm, variants,
                                   brackets, resolution)
        state_f = None
        amps_full = []
        conv_full = []
        states_full = []
        for om in band:
            af, cf, _, state_f = _beam_full_point(asm, coulomb, om, state_f)
            amps_full.append(af)
            conv_full.append(cf)
            states_full.append(state_f)
        # friction vs frictionless at the interior point of the largest
        # Coulomb response: same grid, same start, same fixed horizon
        j = 1 + int(np.argmax(amps_full[1:-1]))
        state_0 = None
        for om in band[:j + 1]:
            _, _, _, state_0 = _beam_full_point(asm, None, om, state_0)
        a_fric, *_ = _beam_full_point(asm, coulomb, band[j], states_full[j],
                                      fixed_periods=160)
        a_free, *_ = _beam_full_point(asm, None, band[j], state_0,
                                      fixed_periods=160)
        errs = [abs(ar - af) / af for af, cf, (ar, cr)
                in zip(amps_full, conv_full, rom.get()) if cf and cr]
        (soft_off, soft_on), (zero_off, zero_on) = folds.result()
    worst = max(errs)
    # the soft-impact beam leaves its branch where the plain beam stays on
    # its own, so its fold lies strictly above the plain fold
    soft_above = soft_off >= zero_on
    el = time.time() - t0
    ok = worst < 0.10 and a_fric < a_free and soft_above and el < 1800.0
    report(12, ok, f"coulomb ROM-vs-full worst rel err {worst:.4f} < 10% over "
                   f"{len(errs)}/12 converged points; at {band[j]:.2f} rad/s "
                   f"friction {a_fric:.7f} < frictionless {a_free:.7f}; "
                   f"soft-impact fold in ({soft_off:.3f}, {soft_on:.3f}] above "
                   f"plain fold in ({zero_off:.3f}, {zero_on:.3f}] rad/s "
                   f"(bisection floor {resolution} rad/s); {el:.0f}s < 1800s")
    assert worst < 0.10
    assert a_fric < a_free, (
        "the warm up-sweep stays on the lower of the coexisting responses, "
        "which holds no resonance peak in the band, and on it Coulomb "
        "friction raises the response near 1.01-1.03 omega1 (665.19 rad/s, "
        "160 periods: delta 0/12/120/600 N gives 0.0378476/0.0378535/"
        "0.0378979/0.0380885) while lowering it at 0.96 omega1 (632.26 "
        "rad/s: 12/120/600 N gives 0.0368044/0.0367921/0.0367440)")
    assert soft_above
    assert el < 1800.0


# ---------------------------------------------------------------------- 13


def test_criterion_13_belt_limit_cycle_and_torus(beam_assembly):
    t0 = time.time()
    asm = beam_assembly
    variant = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    opts = IntegratorOptions(rtol=1e-7, atol=1e-10, first_step=1e-6)
    x0 = vkb.branch_fixed_point(asm, variant, "-")
    kick = np.zeros(2 * asm.n_dof)
    kick[asm.mid_dof_index] = 1e-4
    full = integrate_hybrid(vkb.make_beam_system(asm, variant), x0 + kick,
                            (0.0, 1.2), opts)
    cyc = analysis.detect_limit_cycle(full, coord=asm.mid_dof_index)
    assert cyc is not None, "full model must exhibit a limit cycle"

    models = {}
    for b, tsp, kk in (("+", (0.0, 0.105), 2e-5), ("-", (0.0, 1.5), 5e-5)):
        data = beam_rom.belt_training_data(asm, variant, b, t_span=tsp, kick=kk)
        models[b] = beam_rom.fit_branch_from_data(asm, variant, b, data,
                                                  chart="physical")
        models[b].trust_radius = 1.15
    rom = beam_rom.make_beam_rom(asm, variant, models["+"], models["-"])
    y0 = rom.model("-").chart(x0 + kick)
    rtraj = simulate_rom(rom, y0, "-", (0.0, 1.2),
                         IntegratorOptions(rtol=1e-9, atol=1e-12,
                                           first_step=1e-6))
    rcyc = analysis.detect_limit_cycle(rtraj, coord=asm.mid_dof_index)
    assert rcyc is not None, "reduced model must exhibit a limit cycle"
    f_rel = abs(rcyc.frequency - cyc.frequency) / cyc.frequency

    # forced torus: 50 N at 1.125 x the limit-cycle frequency
    omega_f = 1.125 * 2 * np.pi * cyc.frequency
    forcing = vkb.mid_forcing(asm, 50.0, omega_f)
    fullF = integrate_hybrid(vkb.make_beam_system(asm, variant, forcing),
                             x0 + kick, (0.0, 1.0), opts)
    grid = np.arange(0.5, 1.0, 2e-4)
    xq = fullF.sample(grid)[:, asm.mid_dof_index]
    peaks_full = analysis.spectrum_peaks(grid, xq, n_peaks=2)

    romF = _beam_forced_rom(asm, variant, models, omega_f, amp=50.0)
    rtrajF = simulate_rom(romF, y0, "-", (0.0, 1.0),
                          IntegratorOptions(rtol=1e-9, atol=1e-12,
                                            first_step=1e-6))
    xqr = rtrajF.sample(grid)[:, asm.mid_dof_index]
    peaks_rom = analysis.spectrum_peaks(grid, xqr, n_peaks=2)
    peak_errs = [min(abs(pr - pf) / pf for pr in peaks_rom)
                 for pf in peaks_full]
    el = time.time() - t0
    ok = f_rel < 0.10 and max(peak_errs) < 0.10 and el < 600.0
    report(13, ok, f"f_LC full {cyc.frequency:.2f} Hz vs ROM "
                   f"{rcyc.frequency:.2f} Hz (rel {f_rel:.4f} < 10%); forced "
                   f"spectral peaks full {np.round(peaks_full, 1)} Hz vs ROM "
                   f"{np.round(peaks_rom, 1)} Hz (worst rel "
                   f"{max(peak_errs):.4f} < 10%); {el:.0f}s < 600s")
    assert ok
