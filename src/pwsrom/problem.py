"""One interface over the friction oscillator (analytic branch SSMs) and the
von Karman beam (branch SSMs fitted to decays), built once from a config
section. A problem supplies what the commands and analysis.frc_sweep share:
the full system and the switched ROM at a forcing (omega, amplitude), the
per-branch fit, and defaults: initial state, amplitude coordinate, options
and cold start of the forced response. Problems pickle for sweep workers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import beam_rom
from . import ssm_data as sd
from . import vk_beam as vkb
from .core import IntegratorOptions
from .rom import NonsmoothRom, StickingRule
from .shaw_pierre import SpParams, make_system, sp_field
from .ssm_analytic import build_analytic_model


class ConfigError(ValueError):
    """A config that a command cannot run, with the reason."""


class Problem:
    def fit(self, fc: dict):
        """({branch: SsmModel}, {branch: TrajectoryDataset}) of fit_branch."""
        models, datasets = zip(*(self.fit_branch(b, fc) for b in "+-"))
        return dict(zip("+-", models)), dict(zip("+-", datasets))


@dataclass(frozen=True)
class Oscillator(Problem):
    """The friction oscillator. Amplitudes are SpParams.eps; an omega or amp
    of None keeps the configured forcing."""

    params: SpParams

    dim = 4
    amp_coord = 0
    analytic_rom = True
    default_x0 = (0.5, 0.3, -0.2, 0.1)
    frc_defaults = {"omega_min": 0.8, "omega_max": 1.2, "eps": 0.15}
    full_options = rom_options = IntegratorOptions(rtol=1e-8, atol=1e-10)
    rom_branch0 = "+"
    rom_ramp = 0

    @classmethod
    def from_config(cls, section: dict) -> "Oscillator":
        return cls(SpParams(**section))

    def _at(self, omega, amp) -> SpParams:
        p = self.params
        return replace(p, omega=p.omega if omega is None else omega,
                       eps=p.eps if amp is None else amp)

    def system(self, omega=None, amp=None):
        return make_system(self._at(omega, amp))

    def rom(self, omega=None, amp=None, models: Optional[dict] = None,
            order: int = 3, ic_strategy: str = "projection",
            scale: float = 1.0) -> NonsmoothRom:
        """The ROM on the analytic SSMs of `order` at the forcing amp * scale,
        sticking through the modal chart with dq1 pinned to zero, or on given
        branch models (from files) as they are."""
        if models is not None:
            return NonsmoothRom(models["+"], models["-"],
                                switching=self.system().switching,
                                ic_strategy=ic_strategy)
        p = self._at(omega, None if amp is None else amp * scale)
        system = make_system(p)
        return NonsmoothRom(*[build_analytic_model(p, b, order=order, eps=p.eps,
                                                   omega=p.omega) for b in "+-"],
                            switching=system.switching, ic_strategy=ic_strategy,
                            sticking=StickingRule(system=system, pin=(1, 0.0)))

    def fit_branch(self, branch: str, fc: dict):
        """(model, data): decays from a circle on the analytic SSM, fitted in
        its tangent space."""
        base = build_analytic_model(self.params, branch)
        Vt, _ = np.linalg.qr(base.tangent)
        angles = np.linspace(0, 2 * np.pi, fc.get("n_ic", 7), endpoint=False)
        ics = [base.lift(fc.get("radius", 0.35)
                         * np.array([np.cos(a), np.sin(a)])) for a in angles]
        data = sd.generate_training(
            lambda t, x: sp_field(self.params, branch, t, x), ics,
            fc.get("t_span", [0.0, 50.0]), fc.get("dt", 0.02), branch=branch,
            trim_fraction=fc.get("trim_fraction", 0.05))
        fit = sd.fit_manifold(data, Vt, fc.get("order_m", 3), x0=base.x0)
        dyn = sd.fit_dynamics(data, fit, fc.get("order_r", 3))
        model = sd.model_from_fits(fit, dyn, branch)
        model.meta["in_sample_nmte"] = fit.in_sample_nmte
        return model, data


@dataclass(frozen=True, eq=False)
class Beam(Problem):
    """The beam with its midpoint element; amplitudes are midpoint forces in
    N. Forced-response options and the ROM's cold start (at rest on '-',
    forcing ramped up over 20 periods) are criterion 12's."""

    assembly: vkb.BeamAssembly
    variant: vkb.NonsmoothVariant

    analytic_rom = False
    frc_defaults = {}
    full_options = IntegratorOptions(rtol=1e-6, atol=1e-9, first_step=1e-6)
    rom_options = IntegratorOptions(rtol=1e-8, atol=1e-11, first_step=1e-5)
    rom_branch0 = "-"
    rom_ramp = 20

    @classmethod
    def from_config(cls, section: dict) -> "Beam":
        bc = dict(section)
        kind, delta = bc.pop("variant", "coulomb"), bc.pop("delta", 0.0)
        delta_tilde = bc.pop("delta_tilde", None)
        vkw = {k: bc.pop(k) for k in ("v_ground", "alpha_fric", "beta_fric")
               if k in bc}
        asm = vkb.assemble_beam(vkb.BeamProperties(**bc))
        if delta_tilde is not None:
            delta = vkb.delta_for_normalized(asm, kind, delta_tilde, **vkw)
        return cls(asm, vkb.NonsmoothVariant(kind=kind, delta=delta, **vkw))

    dim = property(lambda self: 2 * self.assembly.n_dof)
    amp_coord = property(lambda self: self.assembly.mid_dof_index)
    default_x0 = property(lambda self: np.zeros(self.dim))

    def system(self, omega=None, amp=None):
        forcing = vkb.mid_forcing(self.assembly, amp, omega) if amp else None
        return vkb.make_beam_system(self.assembly, self.variant, forcing)

    def rom(self, omega=None, amp=None, models: Optional[dict] = None,
            order: int = 3, ic_strategy: str = "projection",
            scale: float = 1.0) -> NonsmoothRom:
        """The ROM on fitted branch models, forced by amp * scale when amp is
        nonzero (beam_rom.make_beam_rom). order is the oscillator's."""
        if models is None:
            raise ConfigError("the beam ROM runs on fitted branch models: "
                              "write them with fit and name them in "
                              "simulate.rom_models")
        return beam_rom.make_beam_rom(self.assembly, self.variant, models["+"],
                                      models["-"], ic_strategy, omega,
                                      amp or 0.0, scale)

    def fit_branch(self, branch: str, fc: dict):
        """(model, data): decays from +-1, +-0.65 and +-0.4 times the static
        deflection under fc['static_load'] (several load levels fill the
        reduced disc radially, which keeps the high-order regression away
        from collinear blow-up), fitted by beam_rom.fit_branch_from_data."""
        asm = self.assembly
        load = fc.get("static_load", 12e3)
        ics = [np.concatenate([vkb.static_deflection(asm, sign * frac * load),
                               np.zeros(asm.n_dof)])
               for frac in (1.0, 0.65, 0.4) for sign in (1.0, -1.0)]
        data = sd.generate_training(
            lambda t, x: vkb.beam_field(asm, self.variant, branch, t, x), ics,
            fc.get("t_span", (0.0, 0.35)), fc.get("dt", 1e-4), branch=branch,
            trim_fraction=fc.get("trim_fraction", 0.05),
            opts=IntegratorOptions(rtol=1e-8, atol=1e-10, first_step=1e-6))
        model = beam_rom.fit_branch_from_data(
            asm, self.variant, branch, data, order_m=fc.get("order_m", 5),
            order_r=fc.get("order_r", 5), chart=fc.get("chart", "modal"))
        return model, data
