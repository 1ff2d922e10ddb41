"""Exact quench dynamics of the spin chain.

Two Hamiltonian representations are supported: the full transverse-field
Ising model

    H = sum_{i<j} J_ij sx_i sx_j + B sum_i sz_i

on all 2^N basis states, and its excitation-conserving XY reduction

    H_XY = sum_{i<j} J_ij (s+_i s-_j + h.c.) + B sum_i sz_i

restricted to a fixed number of up spins.

A product-state quench never leaves the block of its initial state.
The sx_i sx_j couplings flip spins in pairs, so the full model splits
into its two prod_i sz_i parity sectors; an XY sector is a single block.
``HamiltonianRep.sector`` hands out the block of a pattern, and the
block's eigendecomposition is computed once and shared by dense
evolution, the diagonal ensemble and the gap spectrum.  Dense work
happens only when the full dimension of the rep, not the sector's, is at
most DENSE_CAP; larger problems are evolved inside the block by a
deterministic Lanczos approximation of exp(-i H dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .coupling import CouplingMatrix
from .errors import SectorError, SimulationError, SizeError
from .observables import ExcitationPattern, QuenchTrace, assemble_trace

FULL_SPACE_CAP = 16      # spins; 2^16 states is the largest full build
DENSE_CAP = 4096         # full dimension above which evolve switches to Lanczos
_DEGENERACY_RTOL = 1e-11  # level tolerance, relative to the spectral spread


@dataclass(frozen=True)
class Sector:
    """One block of a HamiltonianRep that dynamics never leave.

    indices are the rep's basis indices of the block in ascending
    order, matrix is the block of the rep's matrix and zmat the
    matching (dim, n_ions) table of sigma^z eigenvalues (+-1).
    """

    indices: np.ndarray
    matrix: sp.csr_matrix
    zmat: np.ndarray

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.zmat.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of the block."""
        evals, evecs = np.linalg.eigh(self.matrix.toarray())
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs


@dataclass(frozen=True)
class HamiltonianRep:
    """Sparse Hamiltonian with its basis bookkeeping.

    basis_states holds one bitmask per basis vector (bit i-1 set when
    site i is up); occupations is the matching (dim, n_ions) 0/1 array.
    k_excitations is None for the full model.
    """

    kind: str
    n_ions: int
    b_field: float
    matrix: sp.csr_matrix
    basis_states: np.ndarray
    occupations: np.ndarray
    k_excitations: int | None = None
    _sectors: dict[int, Sector] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        self.basis_states.setflags(write=False)
        self.occupations.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def state_index(self, pattern: ExcitationPattern) -> int:
        """Basis index of a product state, validating the sector."""
        if pattern.n_ions != self.n_ions:
            raise ValueError(
                f"pattern is for {pattern.n_ions} ions, chain has {self.n_ions}"
            )
        if (self.k_excitations is not None
                and pattern.n_excitations != self.k_excitations):
            raise SectorError(
                f"pattern has {pattern.n_excitations} excitations, "
                f"sector holds {self.k_excitations}"
            )
        mask = sum(1 << (i - 1) for i in pattern.flipped)
        idx = int(np.searchsorted(self.basis_states, mask))
        if idx >= len(self.basis_states) or self.basis_states[idx] != mask:
            raise SectorError("pattern is not a basis state of this sector")
        return idx

    def sector(self, pattern: ExcitationPattern) -> tuple[Sector, int]:
        """The block holding a product state and the state's index in it.

        Blocks are built on first use and kept with the rep: the
        prod sz parity sector for the full model, the whole rep for an
        XY sector.
        """
        idx = self.state_index(pattern)
        key = pattern.n_excitations % 2 if self.k_excitations is None else 0
        block = self._sectors.get(key)
        if block is None:
            if self.k_excitations is None:
                parity = self.occupations.sum(axis=1) % 2
                indices = np.flatnonzero(parity == key)
                matrix = self.matrix[indices][:, indices]
            else:
                indices = np.arange(self.dimension)
                matrix = self.matrix
            zmat = 2.0 * self.occupations[indices].astype(float) - 1.0
            block = self._sectors[key] = Sector(indices, matrix, zmat)
        return block, int(np.searchsorted(block.indices, idx))


def _occupation_table(states: np.ndarray, n: int) -> np.ndarray:
    return ((states[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def build_full_ising(jm: CouplingMatrix, b_field: float,
                     cap: int = FULL_SPACE_CAP) -> HamiltonianRep:
    """Full 2^N Hamiltonian; only the off-diagonal couplings enter."""
    n = jm.n_ions
    if n > cap:
        raise SizeError(
            f"{n} spins exceed the full-space cap of {cap}; "
            "use an XY sector instead"
        )
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)
    occ = _occupation_table(states, n)
    diag = b_field * (2.0 * occ.sum(axis=1) - n)
    rows = [states]
    cols = [states]
    data = [diag]
    for i in range(n):
        for j in range(i + 1, n):
            jij = jm.j_script[i, j]
            if jij == 0.0:
                continue
            mask = (1 << i) | (1 << j)
            rows.append(states)
            cols.append(states ^ mask)
            data.append(np.full(dim, jij))
    h = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    return HamiltonianRep(kind="full_ising", n_ions=n, b_field=b_field,
                          matrix=h, basis_states=states, occupations=occ)


def build_xy_sector(jm: CouplingMatrix, b_field: float, k: int) -> HamiltonianRep:
    """Number-conserving XY model in the k-up-spin sector."""
    n = jm.n_ions
    if not 0 <= k <= n:
        raise SectorError(f"k = {k} outside 0..{n}")
    masks = np.array(
        [sum(1 << i for i in combo) for combo in combinations(range(n), k)],
        dtype=np.int64,
    )
    masks.sort()
    index = {int(m): a for a, m in enumerate(masks)}
    dim = len(masks)
    rows, cols, data = [], [], []
    for a, m in enumerate(masks):
        m = int(m)
        ups = [i for i in range(n) if m >> i & 1]
        downs = [i for i in range(n) if not m >> i & 1]
        for i in ups:
            for j in downs:
                jij = jm.j_script[i, j]
                if jij == 0.0:
                    continue
                b = index[m ^ (1 << i) ^ (1 << j)]
                rows.append(a)
                cols.append(b)
                data.append(jij)
    diag = np.full(dim, b_field * (2.0 * k - n))
    rows.extend(range(dim))
    cols.extend(range(dim))
    data.extend(diag)
    h = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()
    occ = _occupation_table(masks, n)
    return HamiltonianRep(kind="xy_sector", n_ions=n, b_field=b_field,
                          matrix=h, basis_states=masks, occupations=occ,
                          k_excitations=k)


def _lanczos_expm_step(hmat: sp.csr_matrix, v: np.ndarray, dt: float,
                       tol: float = 1e-12, m_max: int = 48) -> np.ndarray:
    """One deterministic Krylov approximation of exp(-i H dt) v.

    Splits the step in half whenever the standard residual estimate
    beta_m |exp(-i T dt)|_{m,1} misses tol at the largest subspace.
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy()
    q = [v / beta0]
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(m_max):
        w = hmat @ q[j]
        if j > 0:
            w = w - betas[j - 1] * q[j - 1]
        a = float(np.real(np.vdot(q[j], w)))
        w = w - a * q[j]
        # full reorthogonalization keeps small subspaces honest
        for qq in q:
            w = w - np.vdot(qq, w) * qq
        alphas.append(a)
        b = float(np.linalg.norm(w))
        m = j + 1
        if b < 1e-14 or m == m_max or m >= 6:
            evals, evecs = sla.eigh_tridiagonal(alphas, betas[:m - 1] if m > 1 else [])
            small = evecs @ (np.exp(-1j * evals * dt) * evecs[0, :])
            err = abs(b * small[-1])
            if b < 1e-14 or err < tol:
                return beta0 * (np.column_stack(q) @ small)
            if m == m_max:
                half = _lanczos_expm_step(hmat, v, dt / 2.0, tol, m_max)
                return _lanczos_expm_step(hmat, half, dt / 2.0, tol, m_max)
        betas.append(b)
        q.append(w / b)
    raise SimulationError("Lanczos step failed to converge")  # pragma: no cover


def _dense_sz_series(block: Sector, idx0: int, times: np.ndarray
                     ) -> np.ndarray:
    evals, evecs = block.spectrum
    amps = evecs[idx0, :]  # overlaps of the one-hot initial state
    sz = np.empty((times.size, block.zmat.shape[1]))
    chunk = max(1, int(2**22 // max(block.dimension, 1)))
    for start in range(0, times.size, chunk):
        tt = times[start:start + chunk]
        phases = np.exp(-1j * np.outer(tt, evals)) * amps[None, :]
        psi = phases @ evecs.T
        norms = np.linalg.norm(psi, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise SimulationError("propagation lost unitarity")
        sz[start:start + chunk] = (np.abs(psi) ** 2) @ block.zmat
    return sz


def _krylov_sz_series(block: Sector, idx0: int, times: np.ndarray
                      ) -> np.ndarray:
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted ascending")
    psi = np.zeros(block.dimension, dtype=complex)
    psi[idx0] = 1.0
    sz = np.empty((times.size, block.zmat.shape[1]))
    t_now = 0.0
    for row, t in enumerate(times):
        dt = t - t_now
        if dt > 0:
            psi = _lanczos_expm_step(block.matrix, psi, dt)
            t_now = t
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-8:
            raise SimulationError("propagation lost unitarity")
        sz[row] = (np.abs(psi) ** 2) @ block.zmat
    return sz


def evolve(h: HamiltonianRep, pattern: ExcitationPattern, times: np.ndarray,
           method: str = "auto", dense_cap: int = DENSE_CAP) -> QuenchTrace:
    """Quench from a product state, sampling <sigma^z_i> on a time grid.

    The state is propagated inside its sector; the dense/Krylov choice
    compares the full dimension of h with dense_cap.
    """
    block, idx0 = h.sector(pattern)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if method == "auto":
        method = "dense" if h.dimension <= dense_cap else "krylov"
    if method == "dense":
        if h.dimension > dense_cap:
            raise SizeError(
                f"dimension {h.dimension} exceeds dense cap {dense_cap}"
            )
        sz = _dense_sz_series(block, idx0, times)
    elif method == "krylov":
        sz = _krylov_sz_series(block, idx0, times)
    else:
        raise ValueError(f"unknown method {method!r}")
    return assemble_trace(times, sz, model=h.kind, pattern=pattern.flipped,
                          b_field=h.b_field, method=method)


def _levels(evals: np.ndarray,
            degeneracy_rtol: float = _DEGENERACY_RTOL) -> np.ndarray:
    """Boundaries of the energy levels of an ascending spectrum.

    Neighbouring eigenvalues closer than degeneracy_rtol times the
    spectral spread belong to one level; level j holds the eigenvalues
    evals[bounds[j]:bounds[j + 1]].
    """
    spread = max(evals[-1] - evals[0], abs(evals[-1]), 1e-300)
    cuts = np.flatnonzero(np.diff(evals) > degeneracy_rtol * spread) + 1
    return np.concatenate(([0], cuts, [evals.size]))


def diagonal_ensemble(h: HamiltonianRep, pattern: ExcitationPattern,
                      dense_cap: int = DENSE_CAP,
                      degeneracy_rtol: float = _DEGENERACY_RTOL
                      ) -> np.ndarray:
    """Infinite-time average of <sigma^z_i>.

    Eigenvalues closer than degeneracy_rtol times the spectral spread
    are treated as one block and the initial state is projected into it
    whole, so exactly degenerate pairs keep their coherences.  Only the
    sector of the initial state enters; dense_cap bounds the full
    dimension of h.
    """
    if h.dimension > dense_cap:
        raise SizeError(
            f"dimension {h.dimension} exceeds dense cap {dense_cap}"
        )
    block, idx0 = h.sector(pattern)
    evals, evecs = block.spectrum
    amps = evecs[idx0, :]
    bounds = _levels(evals, degeneracy_rtol)
    prob = np.zeros(block.dimension)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        proj = evecs[:, start:stop] @ amps[start:stop]
        prob += np.abs(proj) ** 2
    return prob @ block.zmat


def energy_expectation(h: HamiltonianRep, psi: np.ndarray) -> float:
    return float(np.real(np.vdot(psi, h.matrix @ psi)))


def excitation_drift(trace: QuenchTrace) -> float:
    """Largest excursion of the total excitation number from its start."""
    return float(np.abs(trace.n_excitations - trace.n_excitations[0]).max())


def default_time_grid(j_max: float, horizon: float = 25.0,
                      n_times: int = 60) -> np.ndarray:
    """Uniform grid over [0, horizon / j_max]."""
    if j_max <= 0:
        raise ValueError("j_max must be positive")
    if n_times < 2:
        raise ValueError("need at least 2 time points")
    return np.linspace(0.0, horizon / j_max, n_times)
