"""Golden event lists of the full model and the switched ROM.

`golden_events.json` pins, for four fixed runs, the kinds, times and states of
every event in order. Full-model events must match it exactly. Reduced-model
events must match within ROM_T_TOL and ROM_X_TOL. Their sticking releases are
bisected to |1 - lambda^2| <= 1e-12 on the full model's Filippov coefficient
at the reconstructed state, and the IC transfer searches along a traced
surface curve, so a change in either moves the reduced state by round-off. Surface hits are located only to
|sigma| <= EPS_EVENT, which near a sticking entry (dq1 -> 0 slowly) fixes the
event time to about 1e-9 to 1e-8. The oscillator and the reduced runs step
on core's float steppers, whose stage sums differ from the numpy stepper's
by round-off; the reduced branch events evaluate sigma = dq1 precomposed
with the lift, equal to sigma of the lift to the bit, the one surface
evaluation the ROM has.

Regenerate (only when a change of results is intended) with
`PYTHONPATH=src python -m tests.test_golden_events [run ...]`: the named
runs are rewritten and the others kept byte for byte (all runs without
names), and each rewritten run's shift against the previous file is printed.
`full_belt_beam` was last regenerated when the beam field moved from dense
force tensors to Gauss-point factors, a change at round-off: the same 37
events of the same kinds, times moved by at most 7.0e-12 s and states by at
most 1.5e-9. `full_oscillator_sticking` was last regenerated when the
oscillator moved from the numpy stepper to the float stepper of length 4: the
same 8 events of the same kinds, times moved by at most 1.2e-9 s and states
by at most 1.5e-10, at the stick entry, where dq1 -> 0 slowly.

All four runs were last regenerated when each segment after an event began
to start at the last accepted step size instead of at first_step, a declared
change of results: every run keeps its event kinds and counts.
full_oscillator_sticking (8 events) moved by at most 1.2e-9 s and 8.9e-11 in
state, full_belt_beam (37) by 2.3e-11 s and 1e-7, rom_continuity_q1_sticking
(10) by 6.2e-9 s and 9.6e-11, and rom_min_all_vars (12) by 2e-8 s and
3.5e-10. The generated SSM evaluators that came just before moved nothing:
the file passed unchanged with them.

`full_oscillator_sticking` was regenerated again when the oscillator's
sliding segments moved from the numpy stepper to the float stepper (the
Filippov field in the fields' tuple type), a change at round-off: the same 8
events of the same kinds, times moved by at most 6.4e-11 s and states by at
most 7.9e-13. The ROM runs, whose surface search moved to float pairs at the
same time, passed unchanged within ROM_T_TOL and ROM_X_TOL.
"""

import functools
import json
import os
import sys

import numpy as np
import pytest

from pwsrom import vk_beam as vkb
from pwsrom.core import IntegratorOptions, integrate_hybrid
from pwsrom.problem import Oscillator
from pwsrom.rom import simulate_rom
from pwsrom.shaw_pierre import SpParams, make_system

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_events.json")
ROM_T_TOL = 2e-8
ROM_X_TOL = 1e-9


def _oscillator_sticking():
    return integrate_hybrid(make_system(SpParams(delta=0.05)),
                            [1.0, 0.5, 0.0, 0.0], (0.0, 40.0))


def _belt_beam():
    asm = vkb.assemble_beam()
    belt = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    x0 = vkb.branch_fixed_point(asm, belt, "-").copy()
    x0[asm.mid_dof_index] += 1e-3
    return integrate_hybrid(vkb.make_beam_system(asm, belt), x0, (0.0, 0.1),
                            IntegratorOptions(rtol=1e-7, atol=1e-10,
                                              first_step=1e-6))


def _rom(delta, strategy):
    rom = Oscillator(SpParams(delta=delta)).rom(ic_strategy=strategy)
    y0 = rom.model("+").chart(np.array([0.5, 0.3, -0.2, 0.1]))
    return simulate_rom(rom, y0, "+", (0.0, 40.0))


RUNS = {
    "full_oscillator_sticking": (_oscillator_sticking, False),
    "full_belt_beam": (_belt_beam, False),
    "rom_continuity_q1_sticking": (
        functools.partial(_rom, 0.05, "continuity_q1"), True),
    "rom_min_all_vars": (functools.partial(_rom, 0.01, "min_all_vars"), True),
}


def _event_list(traj):
    return [[ev.kind.value, float(ev.t), [float(v) for v in ev.x]]
            for ev in traj.events]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_event_list(name):
    run, is_rom = RUNS[name]
    _assert_golden(name, run(), is_rom)


def _assert_golden(name, traj, is_rom):
    with open(GOLDEN) as fh:
        want = json.load(fh)[name]
    got = _event_list(traj)
    assert [e[0] for e in got] == [e[0] for e in want]
    for (_, t, x), (_, t_ref, x_ref) in zip(got, want):
        if is_rom:
            assert abs(t - t_ref) <= ROM_T_TOL
            assert np.max(np.abs(np.subtract(x, x_ref))) <= ROM_X_TOL
        else:
            assert t == t_ref and x == x_ref


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"unknown runs {unknown}; choose from {sorted(RUNS)}")
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    for name in names:
        got, old = _event_list(RUNS[name][0]()), golden.get(name)
        if old is not None:
            # the shift of a declared regeneration, for its record
            same = [e[0] for e in got] == [e[0] for e in old]
            pairs = list(zip(got, old))
            dt = max((abs(a[1] - b[1]) for a, b in pairs), default=0.0)
            dx = max((float(np.max(np.abs(np.subtract(a[2], b[2]))))
                      for a, b in pairs), default=0.0)
            print(f"{name}: {len(got)} events against {len(old)}, kinds "
                  f"{'the same' if same else 'changed'}, max |dt| {dt:.2g}, "
                  f"max |dx| {dx:.2g}")
        golden[name] = got
    with open(GOLDEN, "w") as fh:
        json.dump({name: golden[name] for name in RUNS}, fh, indent=1)
