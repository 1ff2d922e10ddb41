"""Quadratic boson model of the quench and its generalized Gibbs ensemble.

For weak excitation density the spin chain maps onto bosons a_i with

    H0 = sum_k [ (nu_k + 2B) c_k^dag c_k
                 + (nu_k / 2)(c_k^dag c_k^dag + c_k c_k) ],

where nu_k and the orthogonal mode profiles come from the zero-diagonal
coupling matrix.  A Bogoliubov rotation with angle
theta_k = arctanh(nu_k / (nu_k + 2B)) / 2 diagonalizes each k into
quasiparticles d_k of energy epsilon_k = 2 sqrt(B (B + nu_k)), whose
occupations are conserved and fix the GGE.

A noise draw J -> s J keeps the modes of build_spinwave's one eigh and
scales each nu_k, so SpinWaveSystem.scaled(s) reruns only the rotation.

The Heisenberg propagators are diagonal in the mode basis, so the quench
dynamics need no N x N matrix per time: quench_sz evaluates the whole
time grid at once from the flipped sites' rows of the mode profiles, in
a few batched (times x modes) x (modes x sites) products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix
from .errors import SectorError, SimulationError, StabilityError
from .observables import ExcitationPattern


@dataclass(frozen=True)
class SpinWaveSystem:
    """Diagonalized boson model: modes, Bogoliubov angles, energies."""

    b_field: float
    nus: np.ndarray           # eigenvalues of the hopping matrix, ascending
    modes: np.ndarray         # matching eigenvectors, one per column
    thetas: np.ndarray
    epsilons: np.ndarray

    def __post_init__(self):
        for name in ("nus", "modes", "thetas", "epsilons"):
            getattr(self, name).setflags(write=False)

    @property
    def n_ions(self) -> int:
        return self.modes.shape[0]

    def scaled(self, s: float) -> SpinWaveSystem:
        """The system of s J: the same modes, eigenvalues s nu_k."""
        if not s > 0:
            raise ValueError("scale factor must be positive")
        return _quasiparticles(self.b_field, s * self.nus, self.modes)


def _quasiparticles(b_field: float, nus, modes) -> SpinWaveSystem:
    """Rotate the hopping modes (nus, modes) at field B to quasiparticles.

    Raises StabilityError unless B + nu_k > 0 for every mode: elsewhere
    the Bogoliubov rotation is undefined and the boson model unstable.
    Raises SimulationError when B (B + nu_k) overflows an energy.
    """
    if not np.all(b_field + nus > 0):
        raise StabilityError(f"B + nu_min = {b_field + nus.min():.4e} <= 0; "
                             "boson model unstable at this field")
    thetas = 0.5 * np.arctanh(nus / (nus + 2.0 * b_field))
    with np.errstate(over="ignore"):
        epsilons = 2.0 * np.sqrt(b_field * (b_field + nus))
    if not np.isfinite(epsilons).all():
        raise SimulationError(f"B = {b_field:.4e} rad/s overflows an energy")
    return SpinWaveSystem(b_field=b_field, nus=nus, modes=modes,
                          thetas=thetas, epsilons=epsilons)


def build_spinwave(jm: CouplingMatrix, b_field: float) -> SpinWaveSystem:
    """Diagonalize the hopping matrix and rotate to quasiparticles."""
    if not b_field > 0:
        raise ValueError("b_field must be positive")
    nus, vecs = np.linalg.eigh(jm.j_script)
    return _quasiparticles(b_field, nus, vecs)


def _check_pattern(sys: SpinWaveSystem, pattern: ExcitationPattern) -> np.ndarray:
    if pattern.n_ions != sys.n_ions:
        raise ValueError(
            f"pattern is for {pattern.n_ions} ions, system has {sys.n_ions}"
        )
    return pattern.occupations()


def gge_occupations(sys: SpinWaveSystem, pattern: ExcitationPattern) -> np.ndarray:
    """Conserved quasiparticle occupations <d_k^dag d_k> in the initial state."""
    n0 = _check_pattern(sys, pattern)
    proj = (sys.modes**2).T @ n0
    return np.cosh(2.0 * sys.thetas) * proj + np.sinh(sys.thetas) ** 2


def gge_lambdas(occupations: np.ndarray) -> np.ndarray:
    """Lagrange multipliers of the GGE from a bosonic occupation inversion.

    lambda_k = ln(1 + 1/occ_k); an exactly unoccupied mode carries an
    infinite multiplier, returned as +inf rather than tripping overflow.
    """
    occ = np.asarray(occupations, dtype=float)
    if not np.all(occ >= 0):
        raise ValueError("occupations must be non-negative")
    out = np.full_like(occ, np.inf)
    pos = occ > 0
    out[pos] = np.log1p(1.0 / occ[pos])
    return out


def gge_magnetization(sys: SpinWaveSystem, occupations: np.ndarray) -> np.ndarray:
    """Site-resolved <sigma^z_i> predicted by the GGE."""
    occ = np.asarray(occupations, dtype=float)
    per_mode = np.cosh(2.0 * sys.thetas) * occ + np.sinh(sys.thetas) ** 2
    n_site = (sys.modes**2) @ per_mode
    return 2.0 * n_site - 1.0


@dataclass(frozen=True)
class GgeState:
    """GGE prediction for one initial pattern."""

    d_occupations: np.ndarray
    lambdas: np.ndarray
    sz_gge: np.ndarray

    def __post_init__(self):
        for name in ("d_occupations", "lambdas", "sz_gge"):
            getattr(self, name).setflags(write=False)


def gge_state(sys: SpinWaveSystem, pattern: ExcitationPattern) -> GgeState:
    occ = gge_occupations(sys, pattern)
    return GgeState(d_occupations=occ, lambdas=gge_lambdas(occ),
                    sz_gge=gge_magnetization(sys, occ))


def quench_sz(sys: SpinWaveSystem, patterns, times: np.ndarray
              ) -> np.ndarray:
    """Exact free-boson quench dynamics of the site magnetizations: sz
    (P, T, N) of each of the P patterns on the time grid.

    With the Heisenberg propagators u = V diag(f) V^T and w = V diag(g)
    V^T, the particle and pair parts of a_i(t), where
    f_k = cos(eps_k t) - i cosh(2 theta_k) sin(eps_k t) and
    g_k = i sinh(2 theta_k) sin(eps_k t), the occupation of site i is

        n_i(t) = sum_{j in S} (|u_ij|^2 + |w_ij|^2) + sum_k V_ik^2 |g_k|^2

    over the flipped sites S.  Column j of each of Re u, Im u and Im w
    at every grid time is one real (T, K) x (K, N) product, so the whole
    grid costs (3|S| + 1) T N^2 instead of two N x N propagators per
    time; the phase tables and the vacuum term serve every pattern.
    """
    occs = [_check_pattern(sys, pattern) for pattern in patterns]
    times = np.atleast_1d(np.asarray(times, dtype=float))
    v = sys.modes
    phase = np.outer(times, sys.epsilons)
    sin = np.sin(phase)
    parts = (np.cos(phase), sin * np.cosh(2.0 * sys.thetas),
             sin * np.sinh(2.0 * sys.thetas))
    vacuum = parts[2] ** 2 @ (v**2).T
    sz = np.empty((len(occs), times.size, sys.n_ions))
    for out, n0 in zip(sz, occs):
        n_t = vacuum.copy()
        for j in np.flatnonzero(n0):
            for part in parts:
                n_t += ((part * v[j]) @ v.T) ** 2
        out[:] = 2.0 * n_t - 1.0
    return sz


def pair_gap_spectrum(sys: SpinWaveSystem, pattern: ExcitationPattern
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Beat frequencies of a single excitation, weighted by overlap.

    Restricted to the one-excitation sector: the initial spin-up site j
    spreads over eigenmodes with probabilities p_m = V_jm^2, and each
    mode pair (m, n) contributes a gap |eps_m - eps_n| with weight
    p_m p_n.  Multi-excitation patterns have no such decomposition here.
    """
    if pattern.n_excitations != 1:
        raise SectorError(
            "pair gaps are defined for exactly one initial excitation; "
            f"pattern has {pattern.n_excitations}"
        )
    _check_pattern(sys, pattern)
    site = pattern.flipped[0] - 1
    p = sys.modes[site, :] ** 2
    m, n = np.triu_indices(sys.n_ions, k=1)
    return np.abs(sys.epsilons[m] - sys.epsilons[n]), p[m] * p[n]
