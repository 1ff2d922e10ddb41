import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.constants import hbar

import ionquench.constants

from conftest import make_trap_config, make_trap_couplings
from helpers import mode_lambdas, scaled_couplings
from ionquench.config import load_config
from ionquench.coupling import (CouplingMatrix, effective_potential,
                                fit_alpha, ion_couplings, power_law_couplings,
                                scale_rabi_for_jmax, tune_mu_for_alpha)
from ionquench.errors import ResonanceError
from ionquench.lattice import exact_modes
from ionquench.spinwave import build_spinwave, gge_lambdas
from ionquench.stochastic import NoiseModel

TWO_PI = 2.0 * math.pi


def test_power_law_matrix_values():
    jm = power_law_couplings(5, 2.0, 1.5)
    assert jm.j_max == pytest.approx(2.0)
    assert jm.j[0, 1] == pytest.approx(2.0)
    assert jm.j[0, 4] == pytest.approx(2.0 / 4**1.5)
    assert np.all(np.diag(jm.j) == 0.0)
    assert np.allclose(jm.j, jm.j_script)


def test_power_law_alpha_recovered_exactly():
    jm = power_law_couplings(9, 1.0, 0.73)
    assert fit_alpha(jm) == pytest.approx(0.73, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fit_alpha_is_polyfit_bit_for_bit(data):
    """The fit with its design built once is np.polyfit's slope, to the
    last bit, over random positive symmetric couplings."""
    n = data.draw(st.integers(3, 40), label="n")
    iu, ju = np.triu_indices(n, k=1)
    vals = data.draw(arrays(np.float64, iu.size,
                            elements=st.floats(1e-6, 1e6)), label="vals")
    j = np.diag(data.draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)),
                          label="diag"))
    j[iu, ju] = j[ju, iu] = vals
    slope = np.polyfit(np.log(ju - iu), np.log(vals), 1)[0]
    assert fit_alpha(CouplingMatrix.from_full(j)) == float(-slope)


def test_fit_alpha_preconditions():
    with pytest.raises(ValueError):
        fit_alpha(power_law_couplings(2, 1.0, 1.0))
    j = np.array([[0.0, 1.0, -0.2], [1.0, 0.0, 1.0], [-0.2, 1.0, 0.0]])
    with pytest.raises(ValueError):
        fit_alpha(CouplingMatrix.from_full(j))


def test_from_full_validation():
    with pytest.raises(ValueError):
        CouplingMatrix.from_full(np.zeros((3, 3)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        CouplingMatrix.from_full(bad)


def test_scaled_couplings():
    jm = power_law_couplings(4, 1.0, 1.0)
    s = scaled_couplings(jm, 2.5)
    assert s.j_max == pytest.approx(2.5)
    assert np.allclose(s.j_script, 2.5 * jm.j_script)
    with pytest.raises(ValueError):
        scaled_couplings(jm, 0.0)


_NAN_ROWS = np.array([[0.0, math.nan, 1.0], [math.nan, 0.0, 1.0],
                      [1.0, 1.0, 0.0]])


@pytest.mark.parametrize("build", [
    pytest.param(lambda: NoiseModel(j_relative_sigma=math.nan),
                 id="noise-sigma-nan"),
    pytest.param(lambda: NoiseModel(j_relative_sigma=math.inf),
                 id="noise-sigma-inf"),
    pytest.param(lambda: replace(make_trap_config(5), omega_x=math.nan),
                 id="trap-omega-x-nan"),
    pytest.param(lambda: power_law_couplings(4, math.nan, 1.0),
                 id="power-law-j-max-nan"),
    pytest.param(lambda: power_law_couplings(4, 1.0, math.nan),
                 id="power-law-alpha-nan"),
    pytest.param(lambda: fit_alpha(CouplingMatrix(_NAN_ROWS, _NAN_ROWS, 1.0)),
                 id="fit-alpha-nan-coupling"),
    pytest.param(lambda: gge_lambdas(np.array([0.5, math.nan])),
                 id="gge-lambdas-nan"),
    pytest.param(lambda: build_spinwave(power_law_couplings(4, 1.0, 1.0),
                                        math.nan),
                 id="spinwave-field-nan"),
    pytest.param(lambda: build_spinwave(power_law_couplings(4, 1.0, 1.0),
                                        10.0).scaled(math.nan),
                 id="spinwave-scale-nan"),
])
def test_guards_refuse_non_finite_input(build):
    """A NaN or infinite argument fails each guard with ValueError, as
    a non-positive one does, instead of passing a comparison that NaN
    makes False: a NaN noise sigma used to loop forever in the scale
    draw, and an infinite one gave infinite scales."""
    with pytest.raises(ValueError):
        build()


def test_two_ion_coupling_closed_form():
    """Two ions carry one COM and one stretch mode, so J_12 splits into

    (hbar dk^2 Omega^2 / 4M) [1/(mu^2-w_x^2) - 1/(mu^2-w_x^2+2 w_z^2)].
    """
    cfg = make_trap_config(2)
    jm = ion_couplings(cfg, exact_modes(cfg))
    wx2 = cfg.omega_x**2
    expect = (hbar * cfg.delta_k**2 * cfg.rabi**2 / (4.0 * cfg.mass)) * (
        1.0 / (cfg.mu**2 - wx2) - 1.0 / (cfg.mu**2 - wx2 + 2.0 * cfg.omega_z**2)
    )
    assert jm.j[0, 1] == pytest.approx(expect, rel=1e-12)


def test_mode_lambdas_are_coupling_eigenvalues():
    cfg = make_trap_config(6)
    modes = exact_modes(cfg)
    jm = ion_couplings(cfg, modes)
    lams = np.sort(mode_lambdas(cfg, modes))
    evals = np.sort(np.linalg.eigvalsh(jm.j))
    assert np.abs(lams - evals).max() < 1e-9 * np.abs(evals).max()


def test_ion_couplings_positive_above_band():
    # driving above every mode keeps all couplings ferro-signed
    cfg = make_trap_config(7)
    jm = ion_couplings(cfg, exact_modes(cfg))
    iu, ju = np.triu_indices(7, k=1)
    assert np.all(jm.j_script[iu, ju] > 0)
    assert np.allclose(jm.j, jm.j.T)


def test_constants_are_the_scipy_values():
    for name in ("hbar", "atomic_mass", "elementary_charge", "epsilon_0"):
        assert (getattr(ionquench.constants, name)
                == getattr(scipy.constants, name))


def test_mu_within_the_resonance_tolerance_is_rejected():
    """mu = omega_2 (1 + 7e-7) lies within RESONANCE_RTOL of the mode:
    the check is |mu - omega_m| <= 1e-6 omega_m."""
    cfg = make_trap_config(5)
    modes = exact_modes(cfg)
    near = replace(cfg, mu=float(modes.frequencies[1]) * (1.0 + 7e-7))
    with pytest.raises(ResonanceError):
        ion_couplings(near, modes)


def test_resonant_mu_rejected():
    cfg = make_trap_config(4)
    modes = exact_modes(cfg)
    with pytest.raises(ResonanceError):
        ion_couplings(replace(cfg, mu=float(modes.frequencies[1])), modes)


def test_tune_mu_hits_requested_exponent():
    for target in (0.55, 1.33):
        jm, cfg = make_trap_couplings(target)
        assert cfg.mu > cfg.omega_x
        assert abs(jm.alpha_fit - target) < 0.05
    with pytest.raises(ValueError):
        cfg = make_trap_config(5)
        tune_mu_for_alpha(cfg, exact_modes(cfg), [0.55, 3.5])


def test_scale_rabi_hits_target_jmax():
    cfg = make_trap_config(5)
    modes = exact_modes(cfg)
    cfg = scale_rabi_for_jmax(cfg, modes, TWO_PI * 600.0)
    assert ion_couplings(cfg, modes).j_max == pytest.approx(TWO_PI * 600.0,
                                                            rel=1e-12)


def test_effective_potential_double_well():
    jm, _ = make_trap_couplings(0.55)
    pot = effective_potential(jm)
    assert pot.u.min() == 0.0
    left, right = pot.well_minima_sites
    assert left < right
    interior = pot.u[left:right - 1]
    assert interior.max() > pot.u[left - 1] and interior.max() > pot.u[right - 1]
    assert pot.barrier_height > 0
    # inversion-symmetric chain gives a symmetric landscape
    assert np.abs(pot.u - pot.u[::-1]).max() < 1e-9 * pot.u.max()


def test_effective_potential_rejects_flat_diagonal():
    with pytest.raises(ValueError, match="degenerate potential"):
        effective_potential(power_law_couplings(5, 1.0, 0.7))


def test_with_fitted_alpha_attaches_exponent(tmp_path):
    """Trap couplings come with the exponent that fit_alpha finds in them."""
    path = tmp_path / "trap.cfg"
    path.write_text("n_ions = 6\ncoupling_source = trap\n"
                    "target_alpha = 1.1\n")
    jm, _, _ = load_config(path).couplings()
    assert jm.alpha_fit == fit_alpha(jm)
    assert jm.alpha_fit == pytest.approx(1.1, abs=0.05)
