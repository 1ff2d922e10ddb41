"""Exact quench dynamics of the spin chain.

Two Hamiltonians are supported: the full transverse-field Ising model

    H = sum_{i<j} J_ij sx_i sx_j + B sum_i sz_i

on all 2^N basis states, and its excitation-conserving XY reduction

    H_XY = sum_{i<j} J_ij (s+_i s-_j + h.c.) + B sum_i sz_i

restricted to a fixed number k of up spins.

A product-state quench never leaves the block of its initial state: one
of the two prod_i sz_i parity sectors of the full model (the sx_i sx_j
couplings flip spins in pairs), or the whole XY sector.  A
``HamiltonianRep`` holds only J, B and k; ``HamiltonianRep.sector``
hands out the block of a pattern, built on first use.  The block
(``Sector``) owns its basis states as ascending bitmasks and its
sigma^z table, its only (dim x N) table, formed one site at a time;
no 2^N matrix or table is formed.  A parity block is kept in its
Walsh-Hadamard form (_IsingBlock), an XY block as its field diagonal
and coupling entries (_TripletBlock).  Both hand out their coupling
entries apart from the field diagonal, so a noise draw J -> s J holds
the same floats s J_ij as a model rebuilt from the scaled couplings.

``evolve_draws`` is the one quench path, and ``HamiltonianRep.dense``
(the rep's dimension, not the block's, is at most DENSE_CAP) alone
picks its propagator.  A dense block is diagonalised once per stack of
draws; the scale 1.0 spectrum is cached and also serves
``diagonal_ensemble`` and ``level_gaps``.  When J is inversion
symmetric (within _MIRROR_RTOL of |J| max), H commutes with the chain
inversion and each spectrum is kept in its mirror-even and mirror-odd
halves, never merged, each filled from the entries in turn.  Above
the cap the diagonal ensemble and the level gaps raise SizeError, and
evolution runs one real Chebyshev expansion of exp(-i H t) inside the
block (method "krylov"), holding a few recurrence rows
(_chebyshev_rows).  A parity block's product is two Walsh-Hadamard
transforms; an XY block's is a sparse product, the only use of scipy in
the package.

One size rule, HamiltonianRep.check_size, decides what runs besides
DENSE_CAP, before any state or expansion is formed.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .coupling import CouplingMatrix
from .errors import SectorError, SimulationError, SizeError
from .observables import ExcitationPattern

DENSE_CAP = 4096         # largest full dimension with dense spectra
_FLOAT_BUDGET = 2**26    # floats one block and its expansion hold at once
_WORK_BUDGET = 2**32     # time chunks x block dimension x Chebyshev order
_DEGENERACY_RTOL = 1e-11  # level tolerance, relative to the spectral spread
_MIRROR_RTOL = 1e-12      # inversion asymmetry of J, relative to |J| max
_GAP_WEIGHT_FLOOR = 1e-12  # level pairs at or below this weight are dropped
_CHEBYSHEV_TAIL = 1e-16   # largest Bessel coefficient the expansion drops
_TIME_CHUNK = 2**22       # amplitudes propagated at once
_DRAW_CHUNK = 2**15       # amplitudes per chunk of noise draws,
                          # Chebyshev rows or dx signs
_COEFFICIENT_CHUNK = 8    # times per slice of the Chebyshev coefficient tables
_UNIFORM_ULPS = 4         # drift of a uniform grid, in ulps of max |t|


def _hadamard(bits: int) -> np.ndarray:
    """The 2^bits Walsh-Hadamard matrix, entries (-1)^popcount(x & b)."""
    w = np.ones((1, 1))
    for _ in range(bits):
        w = np.kron(w, [[1.0, 1.0], [1.0, -1.0]])
    return w


class _IsingBlock:
    """One prod sz parity block of the full model in Hadamard form.

    In the block's ascending basis the state s has index b = s >> 1,
    since bit 0 follows from the parity.  The coupling sx_i sx_j (sites
    i < j, 0-based) then flips the fixed mask of b's N - 1 bits made of
    bits i - 1 (when i > 0) and j - 1, and every such flip is diagonal in
    the Walsh-Hadamard basis W.  So

        H = diag(dz) + W diag(dx) W / 2^(N-1),

    with dz = B (2 popcount(s) - N) and dx(x) = sum_{i<j} J_ij x_i x_j
    over x in {+-1}^(N-1), x_0 = 1, so a pair (0, j) contributes J_0j x_j.
    W = H_a (x) H_b (x) H_c acts as three small dense factors, one per
    axis of the (2^a, 2^b, 2^c) reshaped vector, with a = bits // 3 and
    b = (bits - a) // 2 of the block's bits = N - 1.
    """

    def __init__(self, upper: np.ndarray, dz: np.ndarray):
        self.dim, self.dz, self._upper = dz.size, dz, upper
        i, j = np.nonzero(upper)
        self.values = upper[i, j]
        self.masks = ((1 << i) | (1 << j)) >> 1  # bit 0 of s drops out

    def scaled(self, s: float) -> _IsingBlock:
        """The block with couplings s J_ij; dx follows on first use."""
        return _IsingBlock(s * self._upper, self.dz)

    @cached_property
    def dx(self) -> np.ndarray:
        """The coupling energies, one per Hadamard basis vector x, from
        _DRAW_CHUNK signs at a time."""
        n = self._upper.shape[0]
        out = np.empty(self.dim)
        step = max(1, _DRAW_CHUNK // n)
        for start in range(0, self.dim, step):
            x = np.arange(start, min(start + step, self.dim))[:, None]
            signs = 1.0 - 2.0 * _bits(x << 1, np.arange(n))  # x_0 = 1
            out[start:start + step] = ((signs @ self._upper) * signs).sum(1)
        return out

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W's three factors H_a, H_b and H_c."""
        bits = self.dim.bit_length() - 1
        a = bits // 3
        b = (bits - a) // 2
        return _hadamard(a), _hadamard(b), _hadamard(bits - a - b)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coupling entries (rows, cols, values), broadcast together:
        pair (i, j) puts J_ij at every entry (b, b ^ mask)."""
        b = np.arange(self.dim)[:, None]
        return b, b ^ self.masks, self.values

    def product(self, centre: float, half: float):
        """The product (v, out) -> out = (H - centre) v / half of real
        (dim,) vectors, out contiguous and apart from v.  The diagonals
        are scaled here, once, and two scratch vectors serve every call."""
        ha, hb, hc = self._factors
        shape = (ha.shape[0], hb.shape[0], hc.shape[0])
        dz = (self.dz - centre) / half
        dx = self.dx / (self.dim * half)
        scratch = np.empty((2, self.dim))

        def transform(src, dst):  # dst = W src, one factor per axis
            np.matmul(ha, src.reshape(shape[0], -1),
                      out=dst.reshape(shape[0], -1))
            np.matmul(hb, dst.reshape(shape), out=scratch[1].reshape(shape))
            np.matmul(scratch[1].reshape(-1, shape[2]), hc,
                      out=dst.reshape(-1, shape[2]))

        def apply(v, out):
            u = scratch[0]
            transform(v, u)
            u *= dx
            transform(u, out)
            np.multiply(dz, v, out=u)
            out += u

        return apply

    def bounds(self) -> tuple[float, float]:
        """Spectral bounds by Weyl's inequality on the two diagonal forms."""
        return (float(self.dz.min() + self.dx.min()),
                float(self.dz.max() + self.dx.max()))


class _TripletBlock:
    """A block given by its field diagonal dz and its coupling entries
    (rows, cols, values), each off the diagonal and at most once."""

    def __init__(self, dz: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray):
        self.dz, self.rows, self.cols, self.values = dz, rows, cols, values
        self.dim = dz.size

    def scaled(self, s: float) -> _TripletBlock:
        """The block with couplings s J_ij."""
        return _TripletBlock(self.dz, self.rows, self.cols, s * self.values)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coupling entries (rows, cols, values)."""
        return self.rows, self.cols, self.values

    def product(self, centre: float, half: float):
        """The product (v, out) -> out = (H - centre) v / half of real
        (dim,) vectors, by one sparse matrix built here from the scaled
        triplets."""
        import scipy.sparse  # only Krylov on an XY block needs it

        b = np.arange(self.dim)
        csr = scipy.sparse.csr_matrix(
            (np.concatenate(((self.dz - centre) / half, self.values / half)),
             (np.concatenate((b, self.rows)), np.concatenate((b, self.cols)))),
            shape=(self.dim, self.dim))

        def apply(v, out):
            out[:] = csr @ v

        return apply

    def bounds(self) -> tuple[float, float]:
        """Gershgorin bounds of the rows."""
        radius = np.bincount(self.rows, np.abs(self.values),
                             minlength=self.dim)
        return (float((self.dz - radius).min()),
                float((self.dz + radius).max()))


@dataclass(frozen=True)
class Sector:
    """One block of a HamiltonianRep that dynamics never leave.

    states are the block's basis states as ascending bitmasks (bit i-1
    set when site i is up), op the block's operator (entries, product,
    bounds, scaled) and zmat the matching (dim, n_ions) table of sigma^z
    eigenvalues (+-1).  mirror maps each block index to that of its
    chain-inverted state, or is None when H does not commute with the
    inversion.
    """

    states: np.ndarray
    op: _IsingBlock | _TripletBlock
    zmat: np.ndarray
    mirror: np.ndarray | None = None

    def __post_init__(self):
        self.states.setflags(write=False)
        self.zmat.setflags(write=False)
        if self.mirror is not None:
            self.mirror.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.states.size

    @cached_property
    def halves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The self-mirror states f and the mirror pairs (lo, hi = R lo).
        Without a mirror every state is in f and there are no pairs."""
        own = np.arange(self.dimension)
        mirror = own if self.mirror is None else self.mirror
        lo = np.flatnonzero(mirror > own)
        return np.flatnonzero(mirror == own), lo, mirror[lo]

    @cached_property
    def half_maps(self) -> tuple:
        """Per mirror half, what _half_eigh fills it from: its size, its
        f part's size, dz and two (int32 flat index, value) maps."""
        f, lo, hi = self.halves
        nf, ne, dim = f.size, f.size + lo.size, self.dimension
        where = np.empty(dim, dtype=np.int64)  # even index, hi as R hi
        where[f] = np.arange(nf)
        where[lo] = where[hi] = np.arange(nf, ne)
        is_hi = np.isin(np.arange(dim), hi)
        rows, cols, values = np.broadcast_arrays(*self.op.entries())
        r, c, to_hi = where[rows], where[cols], is_hi[cols]
        own = ~is_hi[rows] & ~to_hi
        cross = ~is_hi[rows] & to_hi & (r >= nf)
        return tuple(
            (n, split, self.op.dz[states],
             [(((r[k] - off) * n + c[k] - off).astype(np.int32),
               sign * values[k]) for k, sign in ((inner, 1.0), (cross, pm))])
            for n, split, states, off, inner, pm in (
                (ne, nf, np.concatenate((f, lo)), 0, own, 1.0),
                (lo.size, 0, lo, nf, own & (r >= nf) & (c >= nf), -1.0)))

    @cached_property
    def half_spectrum(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The even and odd (eigenvalues, eigenvectors) of the block: the
        half spectra of scale 1, since 1.0 J == J."""
        halves = tuple((evals[0], evecs[0]) for evals, evecs
                       in _half_eigh(np.ones(1), self.half_maps))
        for evals, evecs in halves:
            evals.setflags(write=False)
            evecs.setflags(write=False)
        return halves

    def half_spectra(self, scales: np.ndarray
                     ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The even and odd halves' eigenvalues (S, n), ascending, and
        eigenvectors (S, n, n) of the block with J -> s J for each s in
        scales (see _half_eigh).  Each slice equals the half spectra of
        the block rebuilt from the scaled couplings, bit for bit, so
        scales of exactly [1.0] take the cached half_spectrum."""
        if np.array_equal(scales, [1.0]):
            return tuple((evals[None], evecs[None])
                         for evals, evecs in self.half_spectrum)
        return _half_eigh(scales, self.half_maps)

    def half_coords(self, idx0s) -> tuple[np.ndarray, np.ndarray]:
        """The block's basis states idx0s in the half bases, as rows
        (P, n_even) and (P, n_odd).  A self-mirror state is one even
        entry; the pair states lo and hi are (|+> +- |->)/sqrt2 over the
        pair's even and odd basis vectors."""
        f, lo, _ = self.halves
        even = np.zeros((len(idx0s), f.size + lo.size))
        odd = np.zeros((len(idx0s), lo.size))
        for k, s in enumerate(idx0s):
            partner = s if self.mirror is None else self.mirror[s]
            if partner == s:
                even[k, np.searchsorted(f, s)] = 1.0
            else:
                p = np.searchsorted(lo, min(s, partner))
                even[k, f.size + p] = np.sqrt(0.5)
                odd[k, p] = np.sqrt(0.5) if s < partner else -np.sqrt(0.5)
        return even, odd

    @cached_property
    def half_z(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sigma^z tables that _half_sz weighs: z_f then (z_lo +
        z_hi)/2 for the even half, (z_lo + z_hi)/2 for the odd half and
        z_lo - z_hi for the pair coherences."""
        f, lo, hi = self.halves
        pair = (self.zmat[lo] + self.zmat[hi]) / 2.0
        return (np.concatenate((self.zmat[f], pair)), pair,
                self.zmat[lo] - self.zmat[hi])


def _half_eigh(scales: np.ndarray, maps: tuple
               ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Stacked eigh of blocks through their two mirror halves.

    With f the states that are their own mirror and (lo, hi = R lo) the
    mirror pairs, the even half in the basis (|f>, (|l> + |h>)/sqrt(2))
    and the odd half in (|l> - |h>)/sqrt(2) are

        H+ = [[H_ff, sqrt2 H_fl], [sqrt2 H_lf, H_ll + H_lh]],
        H- = H_ll - H_lh,

    one per scale s, filled into zeros from the block's entries
    (Sector.half_maps): dz, s J among f and lo, then +-s J of the (lo,
    hi) entries at (lo, R hi), so each entry rounds as in a rebuilt
    block; H+'s (f, lo) part is then scaled by sqrt2 and H_lf set to its
    transpose.  No hi row or whole block is formed, and H+ is dropped
    before H- is built.  A block without a mirror is its own even half.
    """
    halves = []
    for n, split, dz, entries in maps:
        half = np.zeros((scales.size, n, n))
        flat = half.reshape(scales.size, -1)
        flat[:, ::n + 1] += dz
        for idx, values in entries:
            flat[:, idx] += np.multiply.outer(scales, values)
        half[:, :split, split:] *= np.sqrt(2.0)
        half[:, split:, :split] = half[:, :split, split:].transpose(0, 2, 1)
        halves.append(np.linalg.eigh(half) if n
                      else (np.zeros((scales.size, 0)), half))
        del half, flat
    return tuple(halves)


@dataclass(frozen=True)
class HamiltonianRep:
    """A Hamiltonian whose blocks come on demand.

    j_script holds the couplings J_ij (zero diagonal) and b_field B.
    k_excitations is None for the full model.  mirror_symmetric says
    whether H commutes with the chain inversion (see _mirror_symmetric).
    A rep whose block fails the size rule raises SizeError when made.
    """

    n_ions: int
    b_field: float
    j_script: np.ndarray
    k_excitations: int | None = None
    mirror_symmetric: bool = False
    _sectors: dict[int, Sector] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        self.check_size()

    def check_size(self, times=(), half_width=None, scale=1.0) -> None:
        """The one size rule: SizeError unless a block of the rep and one
        Chebyshev expansion of it over times fit both budgets.

        Memory counts the floats held at once: per block state 2 N (the
        sigma^z table, states, diagonals, scratch) and the
        _chebyshev_rows rows; in an XY sector 9 per coupling entry, k (N
        - k) per state (8.6 measured: values, int64 indices, copies,
        CSR); per time of one _sz_series chunk its real and imaginary
        states and order coefficients.  Work counts time chunks x
        dimension x order, as each chunk reruns the recurrence.  max |R
        t| stands in for the order, which exceeds it, R being
        half_width, the half-width of the block's spectral bounds;
        before the block exists _half_width_floor(scale) takes its
        place, a lower bound on R for every draw J -> s J with s >=
        scale.  Sizes are Python ints: 2^99 states do not overflow.  The
        README gives the budgets' boundaries on the CLI's default chain.
        """
        n, k = self.n_ions, self.k_excitations
        dim = self.dimension // 2 if k is None else self.dimension
        entries = 0 if k is None else 9 * dim * k * (n - k)
        if half_width is None:
            half_width = self._half_width_floor(scale)
        reach = half_width * float(np.abs(times).max(initial=0.0))
        step = max(1, _TIME_CHUNK // dim)  # times per chunk of _sz_series
        held = min(len(times), step)
        floats = (dim * (2 * n + _chebyshev_rows(dim, held)) + entries
                  + held * (2 * dim + reach))
        work = -(-len(times) // step) * dim * reach
        if not (floats <= _FLOAT_BUDGET and work <= _WORK_BUDGET):  # NaN too
            raise SizeError(f"{'parity' if k is None else 'XY'} sector of "
                            f"{dim} states: {floats:.3g} floats and {work:.3g}"
                            f" Chebyshev expansion updates over {len(times)}"
                            f" times; budgets {_FLOAT_BUDGET}, {_WORK_BUDGET}")

    def _half_width_floor(self, scale: float = 1.0) -> float:
        """A lower bound on the spectral half-width R of a block, with the
        couplings scaled by scale, from the rep alone.

        R is at least the spectrum's standard deviation (Popoviciu's
        inequality).  With S = sum_{i != j} J_ij^2: an XY sector's field
        energy is one constant and each ordered pair (i, j) couples the
        fraction k (N - k) / (N (N - 1)) of its states, so its variance
        is that fraction of S; a parity sector's couplings add S / 2 to
        a variance of the field energies.  The popcounts of a parity
        sector also spread over at least m = 2 floor((N - 1) / 2), so its
        field energies B (2 popcount - N) span 2 |B| m and R >= |B| m.
        """
        n, k = self.n_ions, self.k_excitations
        j = np.abs(self.j_script[~np.eye(n, dtype=bool)])
        top = float(j.max(initial=0.0))
        # scale sqrt(S) without forming J_ij^2, which may overflow
        root = scale * top * float(np.linalg.norm(j / top)) if top else 0.0
        if k is None:
            return max(abs(self.b_field) * 2 * ((n - 1) // 2),
                       root / math.sqrt(2.0))
        return root * math.sqrt(k * (n - k) / (n * (n - 1))) if n > 1 else 0.0

    @property
    def dimension(self) -> int:
        k = self.k_excitations
        return 1 << self.n_ions if k is None else math.comb(self.n_ions, k)

    @property
    def dense(self) -> bool:
        """Whether the rep is small enough for dense spectra (DENSE_CAP)."""
        return self.dimension <= DENSE_CAP

    def sector(self, pattern: ExcitationPattern) -> tuple[Sector, int]:
        """The block holding a product state and the state's index in it."""
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
        block = self.block(pattern.n_excitations % 2
                           if self.k_excitations is None else 0)
        mask = sum(1 << (i - 1) for i in pattern.flipped)
        return block, int(np.searchsorted(block.states, mask))

    def block(self, key: int) -> Sector:
        """Block key, built on first use and kept with the rep: the prod
        sz parity sector key (0 or 1) for the full model, whose state s
        sits at index s >> 1, or the whole XY sector (key 0).  The
        inversion maps each block onto itself.
        """
        block = self._sectors.get(key)
        if block is None:
            n, k = self.n_ions, self.k_excitations
            if k is None:
                b = np.arange(1 << (n - 1))
                states = 2 * b + (np.bitwise_count(b) + key) % 2
            else:
                states = np.array(sorted(
                    sum(1 << i for i in combo)
                    for combo in combinations(range(n), k)))
            dz = self.b_field * (2.0 * np.bitwise_count(states) - n)
            op = (_IsingBlock(np.triu(self.j_script, 1), dz) if k is None
                  else _xy_block(self.j_script, states, dz))
            zmat = np.empty((states.size, n))
            mirrored = np.zeros_like(states)
            for i in range(n):
                bit = _bits(states, i)
                zmat[:, i] = 2.0 * bit - 1.0
                mirrored |= bit << (n - 1 - i)
            mirror = (np.searchsorted(states, mirrored)
                      if self.mirror_symmetric else None)
            block = self._sectors[key] = Sector(states, op, zmat, mirror)
        return block


def _bits(states: np.ndarray, sites) -> np.ndarray:
    """Bit sites (0-based) of the states, broadcast together."""
    return (states >> sites) & 1


def _mirror_symmetric(jm: CouplingMatrix) -> bool:
    """Whether J is inversion symmetric within _MIRROR_RTOL."""
    j = jm.j_script
    return bool(np.abs(j - j[::-1, ::-1]).max()
                <= _MIRROR_RTOL * np.abs(j).max())


def build_full_ising(jm: CouplingMatrix, b_field: float) -> HamiltonianRep:
    """Full 2^N model; only the off-diagonal couplings enter.  SizeError
    when a parity sector fails the size rule."""
    return HamiltonianRep(n_ions=jm.n_ions, b_field=b_field,
                          j_script=jm.j_script,
                          mirror_symmetric=_mirror_symmetric(jm))


def build_xy_sector(jm: CouplingMatrix, b_field: float, k: int) -> HamiltonianRep:
    """Number-conserving XY model in the k-up-spin sector.  SizeError
    when the sector fails the size rule."""
    n = jm.n_ions
    if not 0 <= k <= n:
        raise SectorError(f"k = {k} outside 0..{n}")
    return HamiltonianRep(n_ions=n, b_field=b_field, j_script=jm.j_script,
                          k_excitations=k,
                          mirror_symmetric=_mirror_symmetric(jm))


def _xy_block(j_script: np.ndarray, masks: np.ndarray, dz: np.ndarray
              ) -> _TripletBlock:
    """The XY sector over the ascending bitmasks masks as triplets: the
    field dz on the diagonal and J_ij wherever site i is up and j down."""
    none = np.zeros(0, dtype=np.int64)  # so that J = 0 concatenates too
    rows, cols, values = [none], [none], [np.zeros(0)]
    for i, j in zip(*np.nonzero(j_script)):
        up_down = ((masks >> i) & 1) & ~((masks >> j) & 1)
        a = np.flatnonzero(up_down)
        rows.append(a)
        cols.append(np.searchsorted(masks, masks[a] ^ ((1 << i) | (1 << j))))
        values.append(np.full(a.size, j_script[i, j]))
    return _TripletBlock(dz, np.concatenate(rows), np.concatenate(cols),
                         np.concatenate(values))


def _sz_series(times: np.ndarray, readout, n_amps: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """<sigma^z_i> on the grid and each state's largest |norm - 1|.

    readout(tt) returns the squared norms (..., tt.size) and the sz
    (..., tt.size, N) of states stacked on the leading axes, one row per
    time of the chunk tt.  A chunk holds at most _TIME_CHUNK amplitudes,
    n_amps per time.  Returns sz (..., T, N) and the norm errors (...);
    an error above 1e-8 raises SimulationError, and times out of
    ascending order raise ValueError.
    """
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted ascending")
    chunk = max(1, _TIME_CHUNK // max(n_amps, 1))
    sz, err = [], 0.0
    for start in range(0, times.size, chunk):
        norm2, part = readout(times[start:start + chunk])
        err = np.maximum(err, np.abs(np.sqrt(norm2) - 1.0).max(axis=-1))
        if not np.all(err <= 1e-8):
            raise SimulationError("propagation lost unitarity")
        sz.append(part)
    return np.concatenate(sz, axis=-2), err


def _half_sz(block: Sector, p_even: np.ndarray, p_odd: np.ndarray,
             coherence: np.ndarray) -> np.ndarray:
    """sz of states given in the half bases, in closed form.

    With e and o a state's even and odd amplitudes, e_f and e_p the even
    ones on the self-mirror states and on the pairs, p_even = |e|^2,
    p_odd = |o|^2 and coherence = Re(e_p conj(o)):

        sz = |e_f|^2 z_f + (|e_p|^2 + |o|^2) (z_lo + z_hi) / 2
             + Re(e_p conj(o)) (z_lo - z_hi),

    since the pair states carry (e_p +- o) / sqrt2.
    """
    z_even, z_pair, z_diff = block.half_z
    return p_even @ z_even + p_odd @ z_pair + coherence @ z_diff


def _dense_spectrum(h: HamiltonianRep, pattern: ExcitationPattern
                    ) -> tuple[Sector, tuple, list[np.ndarray]]:
    """The pattern's block, the block's half spectra and the pattern's
    overlaps with each half's eigenvectors; SizeError unless h.dense."""
    if not h.dense:
        raise SizeError(f"dimension {h.dimension} is above DENSE_CAP, "
                        "too large for a dense spectrum")
    block, idx0 = h.sector(pattern)
    spectrum = block.half_spectrum
    return block, spectrum, [coords[0] @ evecs for coords, (_, evecs)
                             in zip(block.half_coords([idx0]), spectrum)]


def _uniform_step(times: np.ndarray) -> float | None:
    """The step dt of a grid of at least two times when every t_k lies
    within _UNIFORM_ULPS ulps of max |t| of t_0 + k dt, with dt =
    (t_{T-1} - t_0) / (T - 1); None for any other grid."""
    if times.size < 2:
        return None
    dt = (times[-1] - times[0]) / (times.size - 1)
    drift = np.abs(times - (times[0] + np.arange(times.size) * dt)).max()
    tol = _UNIFORM_ULPS * np.spacing(np.abs(times).max())
    return float(dt) if drift <= tol else None


def _cos_sin(tt: np.ndarray, evals: np.ndarray, dt: float | None
             ) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phases t E, shaped (..., T, n) for the times tt
    and eigenvalues evals (..., 1, n).

    When tt steps by dt (see _uniform_step), t_k = tt[j T2] + m dt with
    k = j T2 + m and T2 = ceil(sqrt(T)), so the trig of the T1 =
    ceil(T / T2) coarse phases tt[j T2] E and of the T2 fine phases
    m dt E gives every phase by angle addition:
    cos(a + b) = cos a cos b - sin a sin b and
    sin(a + b) = sin a cos b + cos a sin b.  At m = 0 (sin b = 0,
    cos b = 1) that is the direct value bit for bit.  Any other grid
    takes the trig of every phase.
    """
    if dt is None:
        phase = tt[:, None] * evals
        return np.cos(phase), np.sin(phase)
    fine = math.isqrt(tt.size - 1) + 1
    coarse = tt[::fine, None, None] * evals[..., None, :]
    step = (np.arange(fine) * dt)[:, None] * evals[..., None, :]
    cos_a, sin_a = np.cos(coarse), np.sin(coarse)
    cos_b, sin_b = np.cos(step), np.sin(step)
    cos = cos_a * cos_b
    cos -= sin_a * sin_b
    sin = sin_a * cos_b
    sin += cos_a * sin_b
    *lead, rows, _, n = cos.shape
    shape = (*lead, rows * fine, n)
    return (cos.reshape(shape)[..., :tt.size, :],
            sin.reshape(shape)[..., :tt.size, :])


def _dense_sz(block: Sector, idx0s: list[int], times: np.ndarray,
              spectra) -> tuple[np.ndarray, np.ndarray]:
    """sz (S, P, T, N) and norm errors (S, P) of the block's basis states
    idx0s, each quenched under every spectrum of a stack (half_spectra).

    A half with eigenvalues E and eigenvectors V carries the state
    V e^{-iEt} c, c the overlaps of the state's half coordinates with V.
    Its conjugate, which the readout cannot tell apart, is V (cos(Et) c)
    + i V (sin(Et) c): two real (T, n) by (n, n) products per half,
    state and spectrum.  sz follows from the half amplitudes (_half_sz),
    so no block-basis amplitude is formed.  A uniform grid, checked once
    for all of its chunks, takes cos and sin by angle addition
    (_cos_sin).
    """
    nf = block.halves[0].size
    dt = _uniform_step(times)
    starts = [(evals[:, None, None, :], (coords @ evecs)[:, :, None, :],
               evecs[:, None].transpose(0, 1, 3, 2))
              for coords, (evals, evecs)
              in zip(block.half_coords(idx0s), spectra)]

    def readout(tt):
        parts = []
        for evals, c, back in starts:
            cos, sin = _cos_sin(tt, evals, dt)
            parts.append(((cos * c) @ back, (sin * c) @ back))
        (e_re, e_im), (o_re, o_im) = parts
        p_even, p_odd = e_re**2 + e_im**2, o_re**2 + o_im**2
        coherence = e_re[..., nf:] * o_re + e_im[..., nf:] * o_im
        return (p_even.sum(axis=-1) + p_odd.sum(axis=-1),
                _half_sz(block, p_even, p_odd, coherence))

    return _sz_series(times, readout,
                      block.dimension * len(idx0s) * len(spectra[0][0]))


def _draw_workers(n_blocks: int) -> int:
    """min(n_blocks, usable cores // BLAS threads), the BLAS threads read
    from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, as OpenBLAS does;
    1 unless one holds a positive integer."""
    try:
        blas = int(os.environ.get("OPENBLAS_NUM_THREADS")
                   or os.environ.get("OMP_NUM_THREADS"))
    except (TypeError, ValueError):  # unset or not an integer
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(n_blocks, cores // blas)) if blas > 0 else 1


def _in_threads(work, jobs: list, workers: int) -> list:
    """[work(job) for job in jobs]; thread k of `workers` runs jobs k,
    k + workers, ..., thread 0 being the caller.  After the joins, the
    caller's exception, else a helper's, is raised."""
    results = [None] * len(jobs)
    failed = []

    def share(k):
        for i in range(k, len(jobs), workers):
            results[i] = work(jobs[i])

    def helper(k):
        try:
            share(k)
        except BaseException as exc:  # re-raised by the caller
            failed.append(exc)

    helpers = [threading.Thread(target=helper, args=(k,))
               for k in range(1, workers)]
    for thread in helpers:
        thread.start()
    try:
        share(0)
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[0]
    return results


def evolve_draws(quenches, times: np.ndarray, scales
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Quenches under global coupling noise: the draw mean of sz (Q, T, N)
    and each quench's largest norm error (Q,).

    quenches holds Q (rep, pattern) pairs and scales the S draw scales
    s, each standing for J -> s J.  Each draw's sz is bit for bit that of
    the quench on the reps rebuilt from the couplings scaled by s, and
    the draws are added from zeros in draw order, so the mean is bit for
    bit np.mean over them; memory holds one chunk of draws per thread.
    Quenches are grouped by block once.  For a chunk of draws a dense
    block takes one stacked Sector.half_spectra and propagates all of
    its patterns in one stacked product per half and real part; a chunk
    holds about _DRAW_CHUNK amplitudes of the widest block.  Each dense
    block runs its own chunk loop into its own rows, on _draw_workers
    threads at once (one unless BLAS is pinned), so the results are bit
    for bit those of one thread.  A Krylov-sized block evolves each
    draw on its op.scaled(s), and the draw s = 1 on its own op.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    scales = np.asarray(scales, dtype=float)
    if not quenches or scales.size == 0 or not np.all(scales > 0):
        raise ValueError("evolve_draws needs quenches and positive scales")
    dense: dict[int, tuple[HamiltonianRep, Sector, list, list]] = {}
    krylov: dict[int, tuple[HamiltonianRep, Sector, list, list]] = {}
    for pos, (h, pattern) in enumerate(quenches):
        if not h.dense:  # refused before the block is enumerated
            h.check_size(times, scale=float(scales.min()))
        block, idx0 = h.sector(pattern)
        _, _, where, idx0s = (dense if h.dense else krylov).setdefault(
            id(block), (h, block, [], []))
        where.append(pos)
        idx0s.append(idx0)
    jobs = list(dense.values())
    total = np.zeros((len(quenches), times.size, quenches[0][0].n_ions))
    err = np.zeros(len(quenches))
    width = max((block.dimension * len(idx0s)
                 for _, block, _, idx0s in jobs), default=1)
    step = max(1, _DRAW_CHUNK // (width * times.size))

    def block_draws(job):
        _, block, where, idx0s = job
        sums, errs = np.zeros((len(where), *total.shape[1:])), 0.0
        for start in range(0, scales.size, step):
            sz, chunk_err = _dense_sz(block, idx0s, times, block.half_spectra(
                scales[start:start + step]))
            for draw in sz:
                sums += draw
            errs = np.maximum(errs, chunk_err.max(axis=0))
        return sums, errs

    for (_, _, where, _), (sums, errs) in zip(
            jobs, _in_threads(block_draws, jobs, _draw_workers(len(jobs)))):
        total[where] = sums
        err[where] = errs
    for s in scales:
        for h, block, where, idx0s in krylov.values():
            op = block.op if s == 1.0 else block.op.scaled(s)
            lo, hi = op.bounds()  # the size rule at this draw's own R
            h.check_size(times, (hi - lo) / 2.0)
            for pos, idx0 in zip(where, idx0s):
                sz, draw_err = _krylov_sz_series(op, block.zmat, idx0, times)
                total[pos] += sz
                err[pos] = max(err[pos], draw_err)
    return total / scales.size, err


def _bessel_j(n: int, z: float) -> np.ndarray:
    """J_0(z), ..., J_{n-1}(z) for z > 0 by Miller's backward recurrence.

    f_{k-1} = (2k / z) f_k - f_{k+1} runs down from f_n = 1, f_{n+1} = 0
    (rescaled whenever it nears overflow), and f is normalised to
    J_0 + 2 sum_k J_2k = 1.  The error at order k is about
    (J_n(z) / J_k(z))^2, so n must lie well past the orders needed.
    """
    f = [0.0] * (n + 2)
    f[n] = 1.0
    for k in range(n, 0, -1):
        f[k - 1] = (2.0 * k / z) * f[k] - f[k + 1]
        if abs(f[k - 1]) > 1e250:
            f = [v * 1e-250 for v in f]
    out = np.array(f[:n])
    return out / (out[0] + 2.0 * out[2::2].sum())


def _chebyshev_order(z: float) -> int:
    """Terms the expansion keeps at z = max |R t|: one past the last
    order k with |J_k(z)| >= _CHEBYSHEV_TAIL."""
    if z == 0.0:
        return 1
    # (z/2)^k / k! bounds |J_k(z)|, so this range reaches far into the tail
    bessel = _bessel_j(int(1.5 * z) + 64, z)
    return int(np.flatnonzero(np.abs(bessel) >= _CHEBYSHEV_TAIL).max()) + 1


def _chebyshev_coefficients(z: np.ndarray, order: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The expansion coefficients of exp(-i z x) in T_k(x), k < order,
    split by parity: the even table (T, ceil(order / 2)) of c_2m =
    (2 - delta_m0) (-1)^m J_2m(z) and the odd table (T, floor(order / 2))
    of Im c_2m+1 = -2 (-1)^m J_2m+1(z), one row per z.

    cos(z cos theta) and sin(z cos theta) are the Fourier cosine series
    of these coefficients, so one real FFT of each gives them; both
    functions are even in theta, so only the real parts are kept, and
    the even orders come from the first, the odd ones from the second.
    2 * order samples keep the aliased terms below _CHEBYSHEV_TAIL.
    The tables are formed _COEFFICIENT_CHUNK times at a time, so their
    memory does not grow with the times.
    """
    n_theta = 2 * order
    cos_theta = np.cos(2.0 * np.pi * np.arange(n_theta) / n_theta)
    even = np.empty((z.size, (order + 1) // 2))
    odd = np.empty((z.size, order // 2))
    for start in range(0, z.size, _COEFFICIENT_CHUNK):
        rows = slice(start, start + _COEFFICIENT_CHUNK)
        phase = np.outer(z[rows], cos_theta)
        even[rows] = np.fft.rfft(np.cos(phase), axis=1)[:, 0:order:2].real
        odd[rows] = np.fft.rfft(np.sin(phase), axis=1)[:, 1:order:2].real
    even /= n_theta
    odd /= n_theta
    even[:, 1:] *= 2.0
    odd *= -2.0
    return even, odd


def _chebyshev_rows(dim: int, n_times: int) -> int:
    """Chebyshev rows held at once: about _DRAW_CHUNK amplitudes, at least
    the times (each flush rewrites every state), at least 4 (rows k,
    k - 1, k - 2 apart) and even (chunks start on even orders)."""
    return 2 * max(2, _DRAW_CHUNK // (2 * dim), -(-n_times // 2))


def _chebyshev_states(op: _IsingBlock | _TripletBlock, idx0: int,
                      times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts (T, dim) of exp(-i H t) e_idx0 for
    every t, each up to a phase e^{-i c t}.

    With c and R the centre and half-width of the spectral bounds of the
    block operator op, Ht = (H - c) / R has its spectrum in [-1, 1] and

        exp(-i H t) = e^{-i c t} sum_k (2 - delta_k0) (-i)^k J_k(R t) T_k(Ht).

    The Chebyshev vectors v_k = T_k(Ht) e_idx0 are real, come from the
    three-term recurrence v_k = 2 Ht v_{k-1} - v_{k-2} and serve every
    time at once; only the coefficients depend on t.  The op's product
    at half-width R / 2 gives 2 Ht v in one pass per order, halved
    (exactly) at order 1.  The coefficients are real for even k and
    imaginary for odd k (_chebyshev_coefficients), so the even vectors
    feed only the real part of each state and the odd ones only its
    imaginary part; the _chebyshev_rows vectors are added to both
    whenever they fill up.  The order follows from max |R t|
    (_chebyshev_order).  The phase e^{-i c t} is left out because only
    |psi|^2 is read.
    """
    lo, hi = op.bounds()
    centre, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    z = half * times
    re, im = np.zeros((2, times.size, op.dim))
    if half == 0.0:  # H = c: a pure phase
        re[:, idx0] = 1.0
        return re, im
    order = _chebyshev_order(float(np.abs(z).max()))
    even, odd = _chebyshev_coefficients(z, order)
    twice = op.product(centre, half / 2.0)  # v -> 2 Ht v
    chunk = _chebyshev_rows(op.dim, times.size)
    rows = np.zeros((min(order, chunk), op.dim))
    for k in range(order):
        row = rows[k % chunk]
        if k == 0:
            row[idx0] = 1.0
        else:
            twice(rows[(k - 1) % chunk], row)
            if k == 1:
                row *= 0.5
            else:
                row -= rows[(k - 2) % chunk]
        if (k + 1) % chunk == 0 or k + 1 == order:
            first = k - k % chunk  # an even order
            n = k + 1 - first
            re += even[:, first // 2:(first + n + 1) // 2] @ rows[0:n:2]
            im += odd[:, first // 2:(first + n) // 2] @ rows[1:n:2]
    return re, im


def _krylov_sz_series(op: _IsingBlock | _TripletBlock, zmat: np.ndarray,
                      idx0: int, times: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    def readout(tt):
        prob, im = _chebyshev_states(op, idx0, tt)
        prob *= prob
        prob += np.square(im, out=im)
        return prob.sum(axis=-1), prob @ zmat

    return _sz_series(times, readout, op.dim)


def _levels(evals: np.ndarray) -> np.ndarray:
    """Boundaries of the energy levels of an ascending spectrum.

    Neighbouring eigenvalues closer than _DEGENERACY_RTOL times the
    spectral spread belong to one level; level j holds the eigenvalues
    evals[bounds[j]:bounds[j + 1]].
    """
    spread = max(evals[-1] - evals[0], abs(evals[-1]), 1e-300)
    cuts = np.flatnonzero(np.diff(evals) > _DEGENERACY_RTOL * spread) + 1
    return np.concatenate(([0], cuts, [evals.size]))


def _merged_levels(spectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues of a block's two halves in ascending order, the
    stable order that sorts the even then odd eigenvalues into them, and
    the level bounds (see _levels), so a level may straddle both halves."""
    evals = np.concatenate([e for e, _ in spectrum])
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    return evals, order, _levels(evals)


def diagonal_ensemble(h: HamiltonianRep, pattern: ExcitationPattern
                      ) -> np.ndarray:
    """Infinite-time average of <sigma^z_i>.

    Each energy level (see _merged_levels) is one block and the initial
    state is projected into it whole, so exactly degenerate pairs keep
    their coherences.  A level of one eigenvector v with overlap c adds
    c^2 v^2 to its half's weights, so all of them together cost one
    product per half; only the levels of several eigenvectors, which
    may straddle both halves, are projected one by one.  Only the
    sector of the initial state enters; raises SizeError unless h.dense.
    """
    block, spectrum, overlaps = _dense_spectrum(h, pattern)
    (_, v_even), (_, v_odd) = spectrum
    c_even, c_odd = overlaps
    _, order, bounds = _merged_levels(spectrum)
    sizes = np.diff(bounds)
    single = np.zeros(order.size, dtype=bool)
    single[order[bounds[:-1][sizes == 1]]] = True
    n_even, nf = c_even.size, block.halves[0].size
    p_even = v_even**2 @ np.where(single[:n_even], c_even**2, 0.0)
    p_odd = v_odd**2 @ np.where(single[n_even:], c_odd**2, 0.0)
    coherence = np.zeros(c_odd.size)
    for j in np.flatnonzero(sizes > 1):
        members = order[bounds[j]:bounds[j + 1]]
        even = members[members < n_even]
        odd = members[members >= n_even] - n_even
        e = v_even[:, even] @ c_even[even]
        o = v_odd[:, odd] @ c_odd[odd]
        p_even += e**2
        p_odd += o**2
        coherence += e[nf:] * o
    return _half_sz(block, p_even, p_odd, coherence)


def level_gaps(h: HamiltonianRep, pattern: ExcitationPattern
               ) -> tuple[np.ndarray, np.ndarray]:
    """Pair gaps and their weights between the energy levels a quench
    populates.

    The exact counterpart of spinwave.pair_gap_spectrum.  Only the
    sector of the pattern carries weight, so only its levels pair up.
    A level weighs |P_E psi|^2, the sum of its eigenvectors' squared
    overlaps, which does not depend on the basis eigh picks inside a
    degenerate level, and a pair weighs the product of its two levels;
    pairs at or below _GAP_WEIGHT_FLOOR are dropped.  Raises SizeError
    unless h.dense.
    """
    _, spectrum, overlaps = _dense_spectrum(h, pattern)
    evals, order, bounds = _merged_levels(spectrum)
    p = np.add.reduceat(np.concatenate(overlaps)[order] ** 2, bounds[:-1])
    energies = np.add.reduceat(evals, bounds[:-1]) / np.diff(bounds)
    m, n = np.triu_indices(len(p), k=1)
    w = p[m] * p[n]
    keep = w > _GAP_WEIGHT_FLOOR
    return np.abs(energies[m] - energies[n])[keep], w[keep]


def default_time_grid(j_max: float, horizon: float = 25.0,
                      n_times: int = 60) -> np.ndarray:
    """Uniform grid over [0, horizon / j_max]."""
    if j_max <= 0:
        raise ValueError("j_max must be positive")
    if n_times < 2:
        raise ValueError("need at least 2 time points")
    return np.linspace(0.0, horizon / j_max, n_times)
