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
evolution, the diagonal ensemble and ``level_gaps`` (the exact
counterpart of ``spinwave.pair_gap_spectrum``).  When J is inversion
symmetric (|J - J[::-1, ::-1]| max at most _MIRROR_RTOL times |J| max,
checked once per build; B is uniform, so H then commutes with the chain
inversion R: i -> N + 1 - i), that decomposition splits each block into
its mirror-even and mirror-odd halves in the basis (|s> +- |Rs>)/sqrt(2),
diagonalises each with its own eigh and merges the two spectra in
ascending order, so levels are grouped across both halves.  Otherwise the
block gets one eigh; J is never symmetrised.  One predicate,
``HamiltonianRep.dense``, allows that spectrum: the full dimension of the
rep, not the sector's, is at most DENSE_CAP.  Above the cap the diagonal
ensemble and the level gaps raise SizeError, and evolution runs inside
the block by one real Chebyshev expansion of exp(-i H t) that serves
every grid time at once (method "krylov"): its order, and so its number
of sparse matrix-vector products, grows linearly in spectral width x
max |t|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

from .coupling import CouplingMatrix
from .errors import SectorError, SimulationError, SizeError
from .observables import ExcitationPattern, QuenchTrace, assemble_trace

FULL_SPACE_CAP = 16      # spins; 2^16 states is the largest full build
DENSE_CAP = 4096         # largest full dimension with dense spectra
_DEGENERACY_RTOL = 1e-11  # level tolerance, relative to the spectral spread
_MIRROR_RTOL = 1e-12      # inversion asymmetry of J, relative to |J| max
_GAP_WEIGHT_FLOOR = 1e-12  # level pairs at or below this weight are dropped
_CHEBYSHEV_TAIL = 1e-16   # largest Bessel coefficient the expansion drops
_CHEBYSHEV_CHUNK = 64     # Chebyshev vectors held between accumulations


@dataclass(frozen=True)
class Sector:
    """One block of a HamiltonianRep that dynamics never leave.

    indices are the rep's basis indices of the block in ascending
    order, matrix is the block of the rep's matrix and zmat the
    matching (dim, n_ions) table of sigma^z eigenvalues (+-1).  mirror
    maps each block index to that of its chain-inverted state, or is
    None when H does not commute with the inversion.
    """

    indices: np.ndarray
    matrix: sp.csr_matrix
    zmat: np.ndarray
    mirror: np.ndarray | None = None

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.zmat.setflags(write=False)
        if self.mirror is not None:
            self.mirror.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of the block."""
        if self.mirror is None:
            evals, evecs = np.linalg.eigh(self.matrix.toarray())
        else:
            evals, evecs = _mirror_eigh(self.matrix, self.mirror)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs


def _mirror_eigh(matrix: sp.csr_matrix, mirror: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a mirror-symmetric block through its two mirror halves.

    With f the states that are their own mirror and (l, h = R l) the
    mirror pairs, the even half in the basis (|f>, (|l> + |h>)/sqrt(2))
    and the odd half in (|l> - |h>)/sqrt(2) are

        H+ = [[H_ff, sqrt2 H_fl], [sqrt2 H_lf, H_ll + H_lh]],
        H- = H_ll - H_lh.

    Their eigenvectors map back to the block basis by index arithmetic,
    and a stable sort merges the two spectra.  Each dense array is freed
    once used, so the peak stays near that of one unsplit eigh.
    """
    own = np.arange(mirror.size)
    f = np.flatnonzero(mirror == own)
    lo = np.flatnonzero(mirror > own)
    hi = mirror[lo]
    nf, n_even = f.size, f.size + lo.size
    hmat = matrix.toarray()
    h_ll = hmat[np.ix_(lo, lo)]
    h_lh = hmat[np.ix_(lo, hi)]
    even = np.empty((n_even, n_even))
    even[:nf, :nf] = hmat[np.ix_(f, f)]
    even[:nf, nf:] = np.sqrt(2.0) * hmat[np.ix_(f, lo)]
    even[nf:, :nf] = even[:nf, nf:].T
    even[nf:, nf:] = h_ll + h_lh
    del hmat
    h_ll -= h_lh  # the odd half
    del h_lh
    e_even, v_even = np.linalg.eigh(even)
    e_odd, v_odd = np.linalg.eigh(h_ll)
    del even, h_ll
    v_even[nf:] /= np.sqrt(2.0)
    v_odd /= np.sqrt(2.0)
    evecs = np.zeros((mirror.size, mirror.size))
    evecs[f, :n_even] = v_even[:nf]
    evecs[lo, :n_even] = v_even[nf:]
    evecs[hi, :n_even] = v_even[nf:]
    evecs[lo, n_even:] = v_odd
    evecs[hi, n_even:] = -v_odd
    del v_even, v_odd
    evals = np.concatenate((e_even, e_odd))
    order = np.argsort(evals, kind="stable")
    return evals[order], evecs[:, order]


@dataclass(frozen=True)
class HamiltonianRep:
    """Sparse Hamiltonian with its basis bookkeeping.

    basis_states holds one bitmask per basis vector (bit i-1 set when
    site i is up); occupations is the matching (dim, n_ions) 0/1 array.
    k_excitations is None for the full model.  mirror_symmetric says
    whether H commutes with the chain inversion (see _mirror_symmetric).
    """

    kind: str
    n_ions: int
    b_field: float
    matrix: sp.csr_matrix
    basis_states: np.ndarray
    occupations: np.ndarray
    k_excitations: int | None = None
    mirror_symmetric: bool = False
    _sectors: dict[int, Sector] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        self.basis_states.setflags(write=False)
        self.occupations.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def dense(self) -> bool:
        """Whether the rep is small enough for dense spectra (DENSE_CAP)."""
        return self.dimension <= DENSE_CAP

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
        XY sector.  The inversion maps each block onto itself.
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
            occ = self.occupations[indices]
            zmat = 2.0 * occ.astype(float) - 1.0
            mirror = None
            if self.mirror_symmetric:
                masks = occ[:, ::-1] @ (1 << np.arange(self.n_ions))
                mirror = np.searchsorted(self.basis_states[indices], masks)
            block = self._sectors[key] = Sector(indices, matrix, zmat, mirror)
        return block, int(np.searchsorted(block.indices, idx))


def _mirror_symmetric(jm: CouplingMatrix) -> bool:
    """Whether J is inversion symmetric within _MIRROR_RTOL."""
    j = jm.j_script
    return bool(np.abs(j - j[::-1, ::-1]).max()
                <= _MIRROR_RTOL * np.abs(j).max())


def _occupation_table(states: np.ndarray, n: int) -> np.ndarray:
    return ((states[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def build_full_ising(jm: CouplingMatrix, b_field: float) -> HamiltonianRep:
    """Full 2^N Hamiltonian; only the off-diagonal couplings enter."""
    n = jm.n_ions
    if n > FULL_SPACE_CAP:
        raise SizeError(
            f"{n} spins exceed the full-space cap of {FULL_SPACE_CAP}; "
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
                          matrix=h, basis_states=states, occupations=occ,
                          mirror_symmetric=_mirror_symmetric(jm))


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
                          k_excitations=k,
                          mirror_symmetric=_mirror_symmetric(jm))


def _sz_series(block: Sector, times: np.ndarray, states) -> np.ndarray:
    """<sigma^z_i> on the grid.

    states(tt) returns the block amplitudes psi(t), one row per time of
    the chunk tt; a chunk holds at most 2^22 amplitudes.
    """
    sz = np.empty((times.size, block.zmat.shape[1]))
    chunk = max(1, int(2**22 // max(block.dimension, 1)))
    for start in range(0, times.size, chunk):
        psi = states(times[start:start + chunk])
        norms = np.linalg.norm(psi, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise SimulationError("propagation lost unitarity")
        sz[start:start + chunk] = (np.abs(psi) ** 2) @ block.zmat
    return sz


def _dense_spectrum(h: HamiltonianRep, pattern: ExcitationPattern
                    ) -> tuple[Sector, int, np.ndarray, np.ndarray]:
    """The pattern's block, its index there and the block's spectrum."""
    if not h.dense:
        raise SizeError(f"dimension {h.dimension} is above DENSE_CAP, "
                        "too large for a dense spectrum")
    block, idx0 = h.sector(pattern)
    return (block, idx0) + block.spectrum


def _dense_sz_series(h: HamiltonianRep, pattern: ExcitationPattern,
                     times: np.ndarray) -> np.ndarray:
    block, idx0, evals, evecs = _dense_spectrum(h, pattern)
    amps = evecs[idx0, :]  # overlaps of the one-hot initial state
    return _sz_series(block, times, lambda tt: (
        np.exp(-1j * np.outer(tt, evals)) * amps[None, :]) @ evecs.T)


def _chebyshev_states(hmat: sp.csr_matrix, idx0: int, times: np.ndarray
                      ) -> np.ndarray:
    """Rows exp(-i H t) e_idx0 for every t, each up to a phase e^{-i c t}.

    With c and R the centre and half-width of the Gershgorin bounds of H,
    Ht = (H - c) / R has its spectrum in [-1, 1] and

        exp(-i H t) = e^{-i c t} sum_k (2 - delta_k0) (-i)^k J_k(R t) T_k(Ht).

    The Chebyshev vectors v_k = T_k(Ht) e_idx0 are real, come from the
    three-term recurrence and serve every time at once; only the
    coefficients depend on t.  J_k(R t) falls faster than exponentially
    once k exceeds |R t|, so the order follows from max |R t| and costs
    one sparse product per order.  The phase e^{-i c t} is left out
    because only |psi|^2 is read.
    """
    dim = hmat.shape[0]
    diag = hmat.diagonal()
    radius = np.asarray(abs(hmat).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    centre, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    psi = np.zeros((times.size, dim), dtype=complex)
    if half == 0.0:  # H = c: a pure phase
        psi[:, idx0] = 1.0
        return psi
    z = half * times
    z_max = float(np.abs(z).max())
    # (z/2)^k / k! bounds |J_k(z)|, so this range reaches far into the tail
    ks = np.arange(int(1.5 * z_max) + 64)
    order = int(np.flatnonzero(np.abs(jv(ks, z_max)) >= _CHEBYSHEV_TAIL)
                .max()) + 1
    # The Fourier coefficients of e^{-i z cos(theta)} are (-i)^k J_k(z);
    # 2 * order samples keep the aliased terms below _CHEBYSHEV_TAIL.
    n_theta = 2 * order
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    coef = np.fft.fft(np.exp(-1j * np.outer(z, np.cos(theta))),
                      axis=1)[:, :order] / n_theta
    coef[:, 1:] *= 2.0
    rows = np.empty((min(order, _CHEBYSHEV_CHUNK), dim))
    for k in range(order):
        row = rows[k % _CHEBYSHEV_CHUNK]
        if k == 0:
            row[:] = 0.0
            row[idx0] = 1.0
        else:
            prev = rows[(k - 1) % _CHEBYSHEV_CHUNK]
            step = (hmat @ prev - centre * prev) / half
            row[:] = step if k == 1 else (
                2.0 * step - rows[(k - 2) % _CHEBYSHEV_CHUNK])
        if (k + 1) % _CHEBYSHEV_CHUNK == 0 or k + 1 == order:
            first = k - k % _CHEBYSHEV_CHUNK
            c = coef[:, first:k + 1]
            psi.real += c.real @ rows[:c.shape[1]]
            psi.imag += c.imag @ rows[:c.shape[1]]
    return psi


def _krylov_sz_series(block: Sector, idx0: int, times: np.ndarray
                      ) -> np.ndarray:
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted ascending")
    return _sz_series(block, times,
                      lambda tt: _chebyshev_states(block.matrix, idx0, tt))


def evolve(h: HamiltonianRep, pattern: ExcitationPattern, times: np.ndarray,
           method: str = "auto") -> QuenchTrace:
    """Quench from a product state, sampling <sigma^z_i> on a time grid.

    The state is propagated inside its sector; "auto" picks dense when
    h.dense holds and Krylov otherwise.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if method == "auto":
        method = "dense" if h.dense else "krylov"
    if method == "dense":
        sz = _dense_sz_series(h, pattern, times)
    elif method == "krylov":
        sz = _krylov_sz_series(*h.sector(pattern), times)
    else:
        raise ValueError(f"unknown method {method!r}")
    return assemble_trace(times, sz, model=h.kind, pattern=pattern.flipped,
                          b_field=h.b_field, method=method)


def _levels(evals: np.ndarray) -> np.ndarray:
    """Boundaries of the energy levels of an ascending spectrum.

    Neighbouring eigenvalues closer than _DEGENERACY_RTOL times the
    spectral spread belong to one level; level j holds the eigenvalues
    evals[bounds[j]:bounds[j + 1]].
    """
    spread = max(evals[-1] - evals[0], abs(evals[-1]), 1e-300)
    cuts = np.flatnonzero(np.diff(evals) > _DEGENERACY_RTOL * spread) + 1
    return np.concatenate(([0], cuts, [evals.size]))


def diagonal_ensemble(h: HamiltonianRep, pattern: ExcitationPattern
                      ) -> np.ndarray:
    """Infinite-time average of <sigma^z_i>.

    Each energy level (see _levels) is one block and the initial state
    is projected into it whole, so exactly degenerate pairs keep their
    coherences.  Only the sector of the initial state enters; raises
    SizeError unless h.dense.
    """
    block, idx0, evals, evecs = _dense_spectrum(h, pattern)
    amps = evecs[idx0, :]
    bounds = _levels(evals)
    prob = np.zeros(block.dimension)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        proj = evecs[:, start:stop] @ amps[start:stop]
        prob += np.abs(proj) ** 2
    return prob @ block.zmat


def level_gaps(h: HamiltonianRep, pattern: ExcitationPattern
               ) -> list[tuple[float, float]]:
    """Pair gaps between the energy levels a quench populates.

    The exact counterpart of spinwave.pair_gap_spectrum.  Only the
    sector of the pattern carries weight, so only its levels pair up.
    A level weighs |P_E psi|^2, which does not depend on the basis eigh
    picks inside a degenerate level, and a pair weighs the product of
    its two levels; pairs at or below _GAP_WEIGHT_FLOOR are dropped.
    Raises SizeError unless h.dense.
    """
    _, idx0, evals, evecs = _dense_spectrum(h, pattern)
    bounds = _levels(evals)
    p = np.add.reduceat(evecs[idx0, :] ** 2, bounds[:-1])
    energies = np.add.reduceat(evals, bounds[:-1]) / np.diff(bounds)
    m, n = np.triu_indices(len(p), k=1)
    w = p[m] * p[n]
    keep = w > _GAP_WEIGHT_FLOOR
    gaps = np.abs(energies[m] - energies[n])[keep]
    return list(zip(gaps.tolist(), w[keep].tolist()))


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
