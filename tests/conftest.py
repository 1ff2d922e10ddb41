import math
from dataclasses import replace

import pytest

from ionquench.constants import elementary_charge
from ionquench.coupling import (fit_alpha, ion_couplings, scale_rabi_for_jmax,
                                tune_mu_for_alpha)
from ionquench.lattice import (YB171_MASS, TrapConfig,
                               axial_scale_from_spacing, exact_modes)

TWO_PI = 2.0 * math.pi


def make_trap_config(n_ions: int = 7) -> TrapConfig:
    """Reference chain: 4.8 MHz transverse modes, 5 um spacing."""
    return TrapConfig(n_ions=n_ions, omega_x=TWO_PI * 4.8e6,
                      omega_z=axial_scale_from_spacing(
                          YB171_MASS, elementary_charge, 5e-6),
                      mu=TWO_PI * 4.9e6, rabi=TWO_PI * 200e3, spacing=5e-6)


def make_trap_couplings(target_alpha: float, n_ions: int = 7,
                        j_max: float = TWO_PI * 600.0):
    cfg = make_trap_config(n_ions)
    modes = exact_modes(cfg)
    [cfg], _ = tune_mu_for_alpha(cfg, modes, [target_alpha])
    cfg = scale_rabi_for_jmax(cfg, modes, j_max)
    jm = ion_couplings(cfg, modes)
    return replace(jm, alpha_fit=fit_alpha(jm)), cfg


@pytest.fixture(scope="session")
def trap55():
    """7-ion trap-derived couplings tuned to a long-range exponent."""
    jm, _ = make_trap_couplings(0.55)
    return jm


@pytest.fixture(scope="session")
def trap133():
    """7-ion trap-derived couplings tuned to a short-range exponent."""
    jm, _ = make_trap_couplings(1.33)
    return jm
