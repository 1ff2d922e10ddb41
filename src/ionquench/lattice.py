"""Ion chain geometry and transverse phonon modes.

All frequencies are angular (rad/s).  The transverse normal modes of a
linear chain diagonalize the quadratic form

    M/2 * sum_ij (omega_x^2 delta_ij - omega_z^2 K_ij) x_i x_j,

where K is the dimensionless dipolar interaction matrix and omega_z is
the effective axial frequency sqrt(Q^2 / (4 pi eps0 M a0^3)) set by the
nearest-neighbor spacing a0 (for a harmonic trap, omega_z is the actual
axial confinement frequency and the spacing is nonuniform).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import atomic_mass, elementary_charge, epsilon_0
from .errors import ConvergenceError, StabilityError

# 171Yb+ mass and counter-propagating 355 nm Raman beams, the usual
# hardware for this kind of chain.
YB171_MASS = 170.936 * atomic_mass
RAMAN_DELTA_K = math.sqrt(2.0) * 2.0 * math.pi / 355e-9
_EQUILIBRIUM_MAX_ITER = 200   # Newton steps of the force balance
_EQUILIBRIUM_TOL = 1e-12      # residual force per ion, dimensionless


class Geometry(enum.Enum):
    UNIFORM = "uniform"
    HARMONIC = "harmonic"


def axial_scale_from_spacing(mass: float, charge: float, spacing: float) -> float:
    """Effective axial angular frequency for a uniformly spaced chain."""
    return math.sqrt(charge**2 / (4.0 * math.pi * epsilon_0 * mass * spacing**3))


@dataclass(frozen=True)
class TrapConfig:
    """Static trap and drive parameters for one chain.

    omega_x   transverse confinement (rad/s)
    omega_z   effective axial frequency (rad/s); for HARMONIC geometry
              this is the real axial trap frequency
    mu        beatnote detuning of the spin-dependent drive (rad/s)
    rabi      carrier Rabi frequency (rad/s)
    delta_k   wavevector difference of the drive beams (1/m)
    spacing   nearest-neighbor distance (m); sets positions for UNIFORM
              geometry and is ignored for HARMONIC
    """

    n_ions: int
    omega_x: float
    omega_z: float
    mu: float
    rabi: float
    delta_k: float = RAMAN_DELTA_K
    mass: float = YB171_MASS
    charge: float = elementary_charge
    spacing: float = 5e-6
    geometry: Geometry = Geometry.UNIFORM

    def __post_init__(self):
        if self.n_ions < 2:
            raise ValueError("need at least 2 ions")
        for name in ("omega_x", "omega_z", "mu", "rabi", "delta_k",
                     "mass", "charge", "spacing"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def coulomb_length(self) -> float:
        """Length l with Q^2/(4 pi eps0 l^3) = M omega_z^2."""
        return (self.charge**2
                / (4.0 * math.pi * epsilon_0 * self.mass * self.omega_z**2)
                ) ** (1.0 / 3.0)


@dataclass(frozen=True)
class PhononModes:
    """Transverse mode set: columns of mode_matrix are eigenvectors of K.

    kappas are the matching eigenvalues and frequencies (rad/s) obey
    omega_m^2 = omega_x^2 - omega_z^2 kappa_m; exact_modes solves them
    for a chain whatever its drive.
    """

    mode_matrix: np.ndarray
    kappas: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        for name in ("mode_matrix", "kappas", "frequencies"):
            getattr(self, name).setflags(write=False)


def k_matrix(n: int) -> np.ndarray:
    """Dimensionless dipolar matrix for a uniformly spaced chain.

    Off-diagonal entries are -|i-j|^-3; the diagonal carries minus the
    row sum, so every row sums to zero (Laplacian structure).
    """
    if n < 2:
        raise ValueError("need at least 2 ions")
    idx = np.arange(n)
    return _laplacian(np.abs(idx[:, None] - idx[None, :]).astype(float))


def _laplacian(dist: np.ndarray) -> np.ndarray:
    """-dist^-3 off the diagonal, minus the row sum on it (dist is
    overwritten)."""
    np.fill_diagonal(dist, np.inf)
    k = -dist**-3.0
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, -k.sum(axis=1))
    return k


def _dimensionless_equilibrium(n: int) -> tuple[np.ndarray, float]:
    """Damped Newton solve of the harmonic-trap force balance.

    Positions are in units of the Coulomb length; the residual is the
    net force per ion in units of the trap force at that length.
    """
    # uniform initial guess with the known ~N^-0.56 density scaling
    step = 2.0 / n**0.56
    u = step * (np.arange(n) - (n - 1) / 2.0)

    def f_and_jac(u):
        sep = u[:, None] - u[None, :]
        np.fill_diagonal(sep, np.inf)
        f = u - (np.sign(sep) / sep**2).sum(axis=1)
        off = -2.0 / np.abs(sep) ** 3
        jac = off.copy()
        np.fill_diagonal(jac, 1.0 - off.sum(axis=1))
        return f, jac

    f, jac = f_and_jac(u)
    norm = np.abs(f).max()
    for _ in range(_EQUILIBRIUM_MAX_ITER):
        if norm < _EQUILIBRIUM_TOL:
            return u, norm
        du = np.linalg.solve(jac, -f)
        lam = 1.0
        while lam > 1e-6:
            trial = u + lam * du
            if np.all(np.diff(trial) > 0):
                ft, jt = f_and_jac(trial)
                nt = np.abs(ft).max()
                if nt < norm:
                    u, f, jac, norm = trial, ft, jt, nt
                    break
            lam *= 0.5
        else:
            break
    if norm >= _EQUILIBRIUM_TOL:
        raise ConvergenceError(
            f"equilibrium solve stalled at residual {norm:.3e} "
            f"(tol {_EQUILIBRIUM_TOL:.0e})"
        )
    return u, norm


def equilibrium_positions(cfg: TrapConfig) -> np.ndarray:
    """Axial equilibrium positions in meters, sorted ascending."""
    if cfg.geometry is Geometry.UNIFORM:
        return cfg.spacing * (np.arange(cfg.n_ions) - (cfg.n_ions - 1) / 2.0)
    u, _ = _dimensionless_equilibrium(cfg.n_ions)
    return cfg.coulomb_length() * u


def exact_modes(cfg: TrapConfig) -> PhononModes:
    """Numerically exact transverse modes from the chain positions.

    Eigenvalues come back ascending in kappa, i.e. descending in mode
    frequency with the center-of-mass mode first.  The drive (mu, rabi)
    is not read, so one solve serves every drive of the chain.  Raises
    StabilityError when the lowest mode softens to zero.
    """
    z = equilibrium_positions(cfg)
    if cfg.geometry is Geometry.UNIFORM:
        k = k_matrix(cfg.n_ions)
    else:
        # general positions: same Laplacian with distances in units of
        # the Coulomb length so that omega_z^2 stays the prefactor
        k = _laplacian(np.abs(z[:, None] - z[None, :]) / cfg.coulomb_length())
    kappas, vecs = np.linalg.eigh(k)
    omega_sq = cfg.omega_x**2 - cfg.omega_z**2 * kappas
    if np.any(omega_sq <= 0):
        raise StabilityError(
            "transverse mode frequency squared is not positive; "
            "reduce omega_z or stiffen omega_x"
        )
    freqs = np.sqrt(omega_sq)
    return PhononModes(mode_matrix=vecs, kappas=kappas, frequencies=freqs)
