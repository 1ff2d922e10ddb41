"""Spin-spin coupling matrices and what they imply for a single excitation.

The drive couples every pair of spins through the transverse phonons:

    J_ij = hbar dk^2 Omega^2 / (2 M) * sum_m V_im V_jm / (mu^2 - omega_m^2).

The full matrix J includes a site-dependent diagonal J_ii; the
zero-diagonal copy (written j_script here) is what actually moves
excitations around.  -J_ii acts as an emergent single-particle
potential over the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import hbar
from .errors import ResonanceError
from .lattice import PhononModes, TrapConfig

RESONANCE_RTOL = 1e-6


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric coupling matrix in rad/s.

    j          full matrix including the diagonal
    j_script   copy with the diagonal zeroed (the hopping part)
    j_max      largest off-diagonal magnitude
    alpha_fit  fitted power-law exponent, when one has been attached
    """

    j: np.ndarray
    j_script: np.ndarray
    j_max: float
    alpha_fit: float | None = None

    def __post_init__(self):
        self.j.setflags(write=False)
        self.j_script.setflags(write=False)

    @property
    def n_ions(self) -> int:
        return self.j.shape[0]

    @classmethod
    def from_full(cls, j: np.ndarray, alpha_fit: float | None = None
                  ) -> "CouplingMatrix":
        j = np.array(j, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("coupling matrix must be square")
        if not np.allclose(j, j.T, rtol=1e-12, atol=1e-12 * np.abs(j).max()):
            raise ValueError("coupling matrix must be symmetric")
        return cls._from_symmetric(j, alpha_fit)

    @classmethod
    def _from_symmetric(cls, j: np.ndarray, alpha_fit: float | None = None
                        ) -> "CouplingMatrix":
        """from_full without its checks, for a float j the caller built
        symmetric bit for bit."""
        script = j.copy()
        np.fill_diagonal(script, 0.0)
        j_max = float(np.abs(script).max())
        if j_max == 0.0:
            raise ValueError("all off-diagonal couplings vanish")
        return cls(j=j, j_script=script, j_max=j_max, alpha_fit=alpha_fit)


def power_law_couplings(n: int, j_max: float, alpha: float) -> CouplingMatrix:
    """Idealized J_ij = j_max / |i-j|^alpha with an exactly zero diagonal."""
    if n < 2:
        raise ValueError("need at least 2 ions")
    if not j_max > 0:
        raise ValueError("j_max must be positive")
    if not alpha >= 0:
        raise ValueError("alpha must be non-negative")
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(dist, np.inf)
    j = j_max * dist**-alpha
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix.from_full(j, alpha_fit=alpha)


def _mode_weights(cfg: TrapConfig, modes: PhononModes) -> np.ndarray:
    """The weights 1 / (mu^2 - omega_m^2) of the drive on each mode.

    The one resonance check: raises ResonanceError if
    |mu - omega_m| <= RESONANCE_RTOL omega_m for some mode.
    """
    freqs = modes.frequencies
    if not np.all(np.abs(cfg.mu - freqs) > RESONANCE_RTOL * freqs):
        raise ResonanceError("mu lies on a transverse mode; detune the drive")
    return 1.0 / (cfg.mu**2 - freqs**2)


def _prefactor(cfg: TrapConfig) -> float:
    return hbar * cfg.delta_k**2 * cfg.rabi**2 / (2.0 * cfg.mass)


def ion_couplings(cfg: TrapConfig, modes: PhononModes) -> CouplingMatrix:
    """Couplings of the chain's exact_modes at the drive of cfg, diagonal
    included.  Raises ResonanceError if |mu - omega_m| <= 1e-6 omega_m.
    """
    weights = _mode_weights(cfg, modes)
    v = modes.mode_matrix
    j = _prefactor(cfg) * (v * weights) @ v.T
    # j + j.T is symmetric bit for bit, so from_full's check is skipped
    return CouplingMatrix._from_symmetric(0.5 * (j + j.T))


def _alpha_fitter(n: int):
    """fit_alpha for n-ion couplings, with its least-squares design built
    once: np.polyfit's column-scaled Vandermonde matrix of log |i-j| and
    its rcond, so each fit is polyfit's lstsq and its slope bit for bit.
    """
    if n < 3:
        raise ValueError("power-law fit needs at least 3 ions")
    iu, ju = np.triu_indices(n, k=1)
    lhs = np.vander(np.log(ju - iu), 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(iu) * np.finfo(float).eps

    def fit(jm: CouplingMatrix) -> float:
        vals = jm.j_script[iu, ju]
        if not np.all(vals > 0):
            raise ValueError(
                "off-diagonal couplings must be positive to fit alpha")
        slope = np.linalg.lstsq(lhs, np.log(vals), rcond)[0][0] / scale[0]
        return float(-slope)

    return fit


def fit_alpha(jm: CouplingMatrix) -> float:
    """Least-squares power-law exponent of the off-diagonal decay.

    Fits log J_ij against log |i-j| over all pairs, as np.polyfit of
    degree 1 does; every off-diagonal coupling must be positive for the
    log to make sense.
    """
    return _alpha_fitter(jm.n_ions)(jm)


@dataclass(frozen=True)
class EffectivePotential:
    """Emergent single-excitation potential U_i = -J_ii, shifted to min 0."""

    u: np.ndarray
    barrier_height: float
    well_minima_sites: tuple[int, int]

    def __post_init__(self):
        self.u.setflags(write=False)


def effective_potential(jm: CouplingMatrix) -> EffectivePotential:
    """Potential landscape carried by the coupling diagonal.

    The diagonal of an idealized power-law matrix is identically zero
    and carries no landscape, so that input is rejected.
    """
    diag = np.diag(jm.j)
    if np.all(diag == 0.0):
        raise ValueError(
            "degenerate potential: coupling diagonal is identically zero "
            "(idealized power-law input); derive couplings with ion_couplings"
        )
    u = -diag
    u = u - u.min()
    n = len(u)
    half = n // 2
    left = int(np.argmin(u[:half]))
    right = half + int(np.argmin(u[half:]))
    barrier = float(u[left:right + 1].max() - min(u[left], u[right]))
    # well sites are reported 1-based like everything ion-indexed
    return EffectivePotential(u=u, barrier_height=barrier,
                              well_minima_sites=(left + 1, right + 1))




def detuning_scan(cfg: TrapConfig, modes: PhononModes,
                  detuning_range: tuple[float, float], n_grid: int):
    """Yield (d, trial, jm, alpha) at each valid point of a detuning scan.

    The drive runs at mu = omega_x * sqrt(1 + d) with d log-spaced over
    detuning_range, so the mu of cfg is never read; trial is cfg at that
    mu, jm its couplings on modes and alpha their fitted exponent, from
    one fit design for the whole scan.  Points on a mode or without a
    power-law fit are skipped.
    """
    if cfg.n_ions < 3:
        return  # no point has a power-law fit
    fit = _alpha_fitter(cfg.n_ions)
    for d in np.geomspace(detuning_range[0], detuning_range[1], n_grid):
        trial = replace(cfg, mu=cfg.omega_x * math.sqrt(1.0 + d))
        try:
            jm = ion_couplings(trial, modes)
            alpha = fit(jm)
        except (ValueError, ResonanceError):
            continue
        yield d, trial, jm, alpha


def tune_mu_for_alpha(cfg: TrapConfig, modes: PhononModes,
                      target_alphas: Sequence[float], n_grid: int = 120,
                      detuning_range: tuple[float, float] = (1e-4, 1.0)
                      ) -> tuple[list[TrapConfig], tuple[float, float]]:
    """One detuning scan tunes the drive to every target exponent.

    Scans mu = omega_x * sqrt(1 + d) on the chain's modes, d log-spaced
    over detuning_range (see detuning_scan); driving above the
    center-of-mass mode keeps every coupling positive so the fit is
    defined.  Returns cfg tuned to each target's closest grid point,
    first on a tie, and the [min, max] of the fitted exponent over the
    scan's valid points.
    """
    if not all(0.0 < target < 3.0 for target in target_alphas):
        raise ValueError("target_alpha must lie in (0, 3)")
    trials, alphas = [], []
    for _, trial, _, alpha in detuning_scan(cfg, modes, detuning_range,
                                            n_grid):
        trials.append(trial)
        alphas.append(alpha)
    if not alphas:
        raise ValueError("no detuning in range produced a valid power-law fit")
    points = range(len(alphas))
    tuned = [trials[min(points, key=lambda k: abs(alphas[k] - target))]
             for target in target_alphas]
    return tuned, (min(alphas), max(alphas))


def scale_rabi_for_jmax(cfg: TrapConfig, modes: PhononModes,
                        target_jmax: float) -> TrapConfig:
    """Rescale the Rabi frequency so the strongest coupling hits a target."""
    if target_jmax <= 0:
        raise ValueError("target_jmax must be positive")
    current = ion_couplings(cfg, modes).j_max
    return replace(cfg, rabi=cfg.rabi * math.sqrt(target_jmax / current))
