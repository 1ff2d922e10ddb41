import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import elementary_charge, epsilon_0

from conftest import make_trap_config
from helpers import perturbative_modes
from ionquench.coupling import ion_couplings
from ionquench.errors import ResonanceError, StabilityError
from ionquench.lattice import (Geometry, TrapConfig, YB171_MASS,
                               axial_scale_from_spacing,
                               equilibrium_positions, exact_modes, k_matrix)

TWO_PI = 2.0 * math.pi


def test_k_matrix_structure():
    k = k_matrix(6)
    assert np.allclose(k, k.T)
    assert k[0, 1] == pytest.approx(-1.0)
    assert k[0, 3] == pytest.approx(-1.0 / 27.0)
    # Laplacian rows sum to zero at machine precision
    assert np.abs(k.sum(axis=1)).max() < 1e-14 * np.abs(np.diag(k)).max()


def test_k_matrix_two_ions_closed_form():
    # eigenvalues {0, 2}: center of mass and stretch
    kappas = np.linalg.eigvalsh(k_matrix(2))
    assert kappas == pytest.approx([0.0, 2.0])


def test_perturbative_modes_match_exact_spectrum():
    # same-scale accuracy of the cosine-wave closed form for N <= 30
    for n in (7, 10, 25, 30):
        exact = np.linalg.eigvalsh(k_matrix(n))
        approx = np.sort(perturbative_modes(n).kappas)
        scale_err = np.abs(approx - exact).max() / exact.max()
        assert scale_err < 0.05, f"n={n}: {scale_err:.4f}"


def test_perturbative_modes_per_mode_error_bounded():
    exact = np.linalg.eigvalsh(k_matrix(10))
    approx = np.sort(perturbative_modes(10).kappas)
    rel = np.abs(approx[1:] - exact[1:]) / exact[1:]  # skip exact zero mode
    assert rel.max() < 0.10
    assert rel.mean() < 0.05


def test_perturbative_mode_vectors_overlap_exact():
    n = 12
    kappas, vecs = np.linalg.eigh(k_matrix(n))
    pm = perturbative_modes(n)
    order = np.argsort(pm.kappas)
    overlaps = [abs(np.dot(vecs[:, m], pm.mode_matrix[:, order[m]]))
                for m in range(n)]
    # every cosine mode unambiguously identifies its exact partner;
    # quality degrades toward the zone edge but stays near unity
    assert min(overlaps) > 0.97
    assert np.mean(overlaps) > 0.99


def test_perturbative_modes_orthonormal():
    v = perturbative_modes(9).mode_matrix
    assert np.abs(v.T @ v - np.eye(9)).max() < 1e-9


def test_exact_modes_frequencies_and_com():
    cfg = make_trap_config(7)
    modes = exact_modes(cfg)
    # kappa ascending means frequencies descending, COM mode first
    assert np.all(np.diff(modes.kappas) >= 0)
    assert np.all(np.diff(modes.frequencies) <= 0)
    assert modes.kappas[0] == pytest.approx(0.0, abs=1e-12)
    assert modes.frequencies[0] == pytest.approx(cfg.omega_x)
    com = modes.mode_matrix[:, 0]
    assert np.abs(np.abs(com) - 1.0 / math.sqrt(7)).max() < 1e-9


def test_exact_modes_inversion_parity():
    modes = exact_modes(make_trap_config(8))
    flip = modes.mode_matrix[::-1, :]
    for m in range(8):
        overlap = np.dot(modes.mode_matrix[:, m], flip[:, m])
        assert abs(abs(overlap) - 1.0) < 1e-9  # each mode is even or odd


def test_resonant_drive_rejected():
    """The modes belong to the chain; the coupling build rejects the drive."""
    cfg = make_trap_config(5)
    nominal = exact_modes(cfg)
    resonant = replace(cfg, mu=float(nominal.frequencies[2]))
    modes = exact_modes(resonant)
    for name in ("mode_matrix", "kappas", "frequencies"):
        assert (getattr(modes, name).tobytes()
                == getattr(nominal, name).tobytes())
    with pytest.raises(ResonanceError):
        ion_couplings(resonant, modes)


def test_soft_chain_rejected():
    # omega_z far above omega_x zippers the chain
    cfg = TrapConfig(n_ions=5, omega_x=TWO_PI * 100e3, omega_z=TWO_PI * 4e6,
                     mu=TWO_PI * 110e3, rabi=TWO_PI * 100e3)
    with pytest.raises(StabilityError):
        exact_modes(cfg)


def test_axial_scale_from_spacing_closed_form():
    w = axial_scale_from_spacing(YB171_MASS, elementary_charge, 5e-6)
    expect = math.sqrt(elementary_charge**2 /
                       (4 * math.pi * epsilon_0 * YB171_MASS * (5e-6)**3))
    assert w == pytest.approx(expect)
    assert w / TWO_PI == pytest.approx(405.84e3, rel=1e-3)


def test_uniform_positions_centered():
    z = equilibrium_positions(make_trap_config(6))
    assert z.sum() == pytest.approx(0.0)
    assert np.diff(z) == pytest.approx(np.full(5, 5e-6))


def test_harmonic_two_ion_separation_closed_form():
    cfg = TrapConfig(n_ions=2, omega_x=TWO_PI * 4.8e6, omega_z=TWO_PI * 200e3,
                     mu=TWO_PI * 4.9e6, rabi=TWO_PI * 100e3,
                     geometry=Geometry.HARMONIC)
    z = equilibrium_positions(cfg)
    # force balance gives separation (Q^2 / (2 pi eps0 M wz^2))^(1/3)
    expect = (cfg.charge**2 / (2 * math.pi * epsilon_0 * cfg.mass
                               * cfg.omega_z**2)) ** (1.0 / 3.0)
    assert z[1] - z[0] == pytest.approx(expect, rel=1e-10)


def test_harmonic_chain_center_gap_smallest():
    cfg = TrapConfig(n_ions=9, omega_x=TWO_PI * 4.8e6, omega_z=TWO_PI * 200e3,
                     mu=TWO_PI * 4.9e6, rabi=TWO_PI * 100e3,
                     geometry=Geometry.HARMONIC)
    z = equilibrium_positions(cfg)
    gaps = np.diff(z)
    assert np.argmin(gaps) in (3, 4)
    assert z == pytest.approx(-z[::-1])  # inversion symmetric


def test_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(n_ions=1, omega_x=1.0, omega_z=1.0, mu=1.0, rabi=1.0)
    with pytest.raises(ValueError):
        TrapConfig(n_ions=3, omega_x=-1.0, omega_z=1.0, mu=1.0, rabi=1.0)
