"""Parity sectors of the full Ising model and the spectrum cached per sector.

Property tests draw seeded random symmetric couplings; the reference is
the Kronecker-product oracle on all 2^N states, or one unsplit eigh of
the block where the spectrum is split into its two mirror halves.
"""

import json
import sys
import threading
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import ionquench.cli as cli
import ionquench.exact as exact
from helpers import (B_FIELD, JMAX, block_product,
                     complex_table_chebyshev_states, dense_block,
                     dense_ising_oracle, dense_sz_dynamics, dense_xy_oracle,
                     direct_trig_dense_sz, energy_expectation,
                     evolve, hadamard_form_product, mirrored,
                     noise_average, pattern_sz, product_state,
                     scaled_couplings)
from ionquench.cli import main
from ionquench.config import load_config
from ionquench.coupling import CouplingMatrix, power_law_couplings
from ionquench.errors import SizeError
from ionquench.exact import (DENSE_CAP, Sector, _dense_sz, _IsingBlock,
                             _chebyshev_states, _uniform_step,
                             build_full_ising, build_xy_sector,
                             default_time_grid, diagonal_ensemble,
                             level_gaps)
from ionquench.observables import ExcitationPattern
from ionquench.spinwave import build_spinwave, quench_sz
from ionquench.stochastic import NoiseModel, noise_scales

SIZES = range(3, 9)


def random_case(n):
    """Couplings, field and a product-state pattern drawn from seed n."""
    rng = np.random.default_rng(2016 + n)
    j = rng.uniform(-JMAX, JMAX, (n, n))
    jm = CouplingMatrix.from_full((j + j.T) / 2.0)
    b_field = rng.uniform(0.5, 3.0) * JMAX
    k = int(rng.integers(0, n + 1))
    sites = tuple(int(s) for s in rng.choice(np.arange(1, n + 1), k,
                                             replace=False))
    return jm, b_field, ExcitationPattern(n, sites)


def build(model, jm, b_field, pattern):
    if model == "full":
        return build_full_ising(jm, b_field)
    return build_xy_sector(jm, b_field, pattern.n_excitations)


def parity(states):
    return np.array([bin(int(s)).count("1") % 2 for s in states])


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Size of every matrix np.linalg.eigh diagonalised during the test,
    once per matrix of a stacked call."""
    sizes = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


@pytest.fixture
def sector_builds(monkeypatch):
    """The dimension of every Sector built during the test."""
    dims = []
    real = Sector.__post_init__

    def counting(self):
        dims.append(self.dimension)
        real(self)

    monkeypatch.setattr(Sector, "__post_init__", counting)
    return dims


def merged_spectrum(block):
    """The block's half spectra as one ascending spectrum in the block
    basis: eigenvalues (dim,) and eigenvectors (dim, dim)."""
    (e_even, v_even), (e_odd, v_odd) = block.half_spectrum
    c_even, c_odd = block.half_coords(range(block.dimension))
    evals = np.concatenate((e_even, e_odd))
    evecs = np.concatenate((c_even @ v_even, c_odd @ v_odd), axis=1)
    order = np.argsort(evals, kind="stable")
    return evals[order], evecs[:, order]


def assert_block_matches_oracle(block, ref):
    """Every entry of the block against the 2^N oracle restricted to it:
    couplings exactly, the field to the rounding of the oracle's sum."""
    dense = dense_block(block.op)
    expect = ref[np.ix_(block.states, block.states)]
    off = ~np.eye(block.dimension, dtype=bool)
    assert np.abs(dense - expect)[off].max(initial=0.0) == 0.0
    assert (np.abs(np.diag(dense) - np.diag(expect)).max()
            <= 1e-14 * np.abs(expect).max())


@pytest.mark.parametrize("n", SIZES)
def test_full_model_is_hermitian_and_parity_block_diagonal(n):
    jm, b_field, _ = random_case(n)
    h = build_full_ising(jm, b_field)
    assert h.dimension == 2**n
    ref = dense_ising_oracle(jm.j_script, b_field)
    even, odd = (h.block(key) for key in (0, 1))
    assert np.all(parity(even.states) == 0)
    assert np.all(parity(odd.states) == 1)
    for block in (even, odd):
        assert np.all(np.diff(block.states) > 0)
        assert np.array_equal(block.states >> 1, np.arange(2**(n - 1)))
    assert np.array_equal(np.sort(np.concatenate((even.states, odd.states))),
                          np.arange(2**n))
    assert np.all(ref[np.ix_(even.states, odd.states)] == 0.0)
    for block in (even, odd):
        dense = dense_block(block.op)
        assert np.array_equal(dense, dense.T)
        assert_block_matches_oracle(block, ref)


@pytest.mark.parametrize("n", SIZES)
def test_sector_holds_the_pattern_parity(n):
    jm, b_field, pattern = random_case(n)
    h = build_full_ising(jm, b_field)
    block, local = h.sector(pattern)
    assert block.dimension == 2**(n - 1)
    assert np.all(parity(block.states) == pattern.n_excitations % 2)
    assert block.states[local] == sum(1 << (i - 1) for i in pattern.flipped)
    assert block is h.block(pattern.n_excitations % 2)
    assert_block_matches_oracle(block, dense_ising_oracle(jm.j_script,
                                                          b_field))
    assert np.array_equal(block.zmat[local], pattern_sz(pattern))


@pytest.mark.parametrize("case", ["random", "mirror"])
@pytest.mark.parametrize("n", range(2, 10))
def test_block_product_and_bounds_match_the_oracle(n, case):
    """Both parities, N - 1 odd and even, J with and without inversion
    symmetry: the Hadamard-form product equals the oracle block's to
    1e-12 relative, and the oracle block's spectrum lies inside the Weyl
    bounds, which are never wider than Gershgorin's dz +- sum |J_ij|."""
    jm, b_field, _ = (random_case if case == "random" else mirror_case)(n)
    h = build_full_ising(jm, b_field)
    ref = dense_ising_oracle(jm.j_script, b_field)
    radius = np.abs(np.triu(jm.j_script, 1)).sum()
    rng = np.random.default_rng(n)
    for key in (0, 1):
        block = h.block(key)
        expect = ref[np.ix_(block.states, block.states)]
        v = rng.normal(size=block.dimension)
        assert (np.abs(block_product(block.op, v) - expect @ v).max()
                <= 1e-12 * np.abs(expect @ v).max())
        lo, hi = block.op.bounds()
        evals = np.linalg.eigvalsh(expect)
        slack = 1e-12 * np.abs(evals).max()
        assert lo - slack <= evals[0] and evals[-1] <= hi + slack
        field = np.diag(expect)
        assert field.min() - radius - slack <= lo
        assert hi <= field.max() + radius + slack


@pytest.mark.parametrize("model", ["full", "xy"])
@pytest.mark.parametrize("n", SIZES)
def test_scaled_block_equals_the_rebuilt_block(model, n):
    """op.scaled(s) holds the floats s J_ij of a block rebuilt from the
    scaled couplings: its entries, bounds and product match bit for bit."""
    jm, b_field, _ = random_case(n)
    pattern = ExcitationPattern(n, tuple(range(1, n // 2 + 1)))
    block, _ = build(model, jm, b_field, pattern).sector(pattern)
    v = np.random.default_rng(n).normal(size=block.dimension)
    for s in noise_scales(NoiseModel(seed=n), 3):
        op = block.op.scaled(s)
        rebuilt = build(model, scaled_couplings(jm, s), b_field,
                        pattern).sector(pattern)[0].op
        assert np.array_equal(op.dz, rebuilt.dz)
        for got, want in zip(op.entries(), rebuilt.entries()):
            assert np.array_equal(got, want)
        assert op.bounds() == rebuilt.bounds()
        lo, hi = op.bounds()
        for centre, half in ((0.0, 1.0), ((hi + lo) / 2.0, (hi - lo) / 4.0)):
            out, expect = np.empty(op.dim), np.empty(op.dim)
            op.product(centre, half)(v, out)
            rebuilt.product(centre, half)(v, expect)
            assert np.array_equal(out, expect)


@pytest.mark.parametrize("n", [13, 14])
def test_block_product_matches_the_butterfly_at_workload_size(n):
    """At the Krylov sizes the three Hadamard factors are 2^4 x 2^4 x 2^4
    (N = 13) and 2^4 x 2^4 x 2^5 (N = 14).  The product H v, and the
    shifted, scaled product the Chebyshev recurrence runs, equal the
    butterfly form dz v + W (dx W v) / 2^(N-1) to 1e-12 relative."""
    h = build_full_ising(power_law_couplings(n, JMAX, 0.55), B_FIELD)
    rng = np.random.default_rng(n)
    for key in (0, 1):
        op = h.block(key).op
        v = rng.normal(size=op.dim)
        expect = hadamard_form_product(op, v)
        assert (np.abs(block_product(op, v) - expect).max()
                <= 1e-12 * np.abs(expect).max())
        lo, hi = op.bounds()
        centre, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        out = np.empty(op.dim)
        op.product(centre, half)(v, out)
        expect = (expect - centre * v) / half
        assert np.abs(out - expect).max() <= 1e-12 * np.abs(expect).max()


def test_chebyshev_states_match_the_complex_table_expansion():
    """The parity-split propagator on the N = 13, alpha = 0.55 odd block
    against the whole complex coefficient table on the butterfly product,
    over 21 times up to 5 / J_max, within 1e-12."""
    h = build_full_ising(power_law_couplings(13, JMAX, 0.55), B_FIELD)
    block, local = h.sector(ExcitationPattern(13, (1,)))
    op = block.op
    times = np.linspace(0.0, 5.0 / JMAX, 21)
    expect = complex_table_chebyshev_states(
        lambda v: hadamard_form_product(op, v), op.dim, op.bounds(), local,
        times)
    re, im = _chebyshev_states(op, local, times)
    assert np.abs(re + 1j * im - expect).max() < 1e-12


@pytest.mark.parametrize("model", ["full", "xy"])
def test_chebyshev_states_with_the_fewest_rows(monkeypatch, model):
    """With a one-amplitude row budget and 4 times the expansion holds 4
    rows, the fewest that keep rows k, k - 1 and k - 2 apart, and still
    matches the whole complex coefficient table within 1e-12; the order
    is far above 4, so the rows wrap around many times."""
    monkeypatch.setattr("ionquench.exact._DRAW_CHUNK", 1)
    pattern = ExcitationPattern(10, (2, 5, 9))
    h = build(model, power_law_couplings(10, JMAX, 0.55), B_FIELD, pattern)
    block, local = h.sector(pattern)
    times = np.linspace(0.0, 5.0 / JMAX, 4)
    assert exact._chebyshev_rows(block.dimension, times.size) == 4
    expect = complex_table_chebyshev_states(
        lambda v: block_product(block.op, v), block.dimension,
        block.op.bounds(), local, times)
    re, im = _chebyshev_states(block.op, local, times)
    assert np.abs(re + 1j * im - expect).max() < 1e-12


def test_krylov_builds_no_dense_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense block built on the Krylov path")

    monkeypatch.setattr(exact, "_half_eigh", refuse)
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 0)
    jm, b_field, pattern = random_case(8)
    times = np.linspace(0.0, 2.0 / JMAX, 4)
    h = build_full_ising(jm, b_field)
    evolve(h, pattern, times)
    assert not h.dense


@pytest.mark.parametrize("n", SIZES)
def test_sector_evolution_matches_full_oracle(monkeypatch, n):
    jm, b_field, pattern = random_case(n)
    h = build_full_ising(jm, b_field)
    times = np.linspace(0.0, 5.0 / JMAX, 8)
    ref = dense_sz_dynamics(dense_ising_oracle(jm.j_script, b_field),
                            product_state(pattern.flipped, n), times, n)
    dense = evolve(h, pattern, times)
    assert h.dense
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 0)
    krylov = evolve(h, pattern, times)
    assert not h.dense
    assert np.abs(dense.sz - ref).max() < 1e-10
    assert np.abs(krylov.sz - ref).max() < 1e-8

    block, local = h.sector(pattern)
    evals, evecs = merged_spectrum(block)
    psi = evecs @ (np.exp(-1j * evals * times[-1]) * evecs[local])
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    re, im = _chebyshev_states(block.op, local, times[-1:])
    assert abs(np.linalg.norm(re[0] + 1j * im[0]) - 1.0) < 1e-10


@pytest.mark.parametrize("n", SIZES)
def test_diagonal_ensemble_is_the_long_time_average(n):
    """A Hann-windowed time average suppresses the beat at each gap g
    roughly as (g T)^-3, and T = 5000 / J_max lies far beyond the inverse
    smallest gap of every seeded case; the 0.1 / J_max step stays below
    pi over the spectral width, so no beat aliases onto zero frequency."""
    jm, b_field, pattern = random_case(n)
    h = build_full_ising(jm, b_field)
    times = np.linspace(0.0, 5000.0 / JMAX, 50001)
    window = np.sin(np.pi * np.arange(times.size) / (times.size - 1)) ** 2
    average = window @ evolve(h, pattern, times).sz / window.sum()
    assert np.abs(average - diagonal_ensemble(h, pattern)).max() < 1e-4


@pytest.mark.parametrize("n", SIZES)
def test_mirrored_pattern_has_opposite_c(monkeypatch, n):
    """Power-law couplings are inversion symmetric, so the mirrored
    pattern evolves into the mirrored magnetizations and C flips sign."""
    _, b_field, pattern = random_case(n)
    alpha = np.random.default_rng(n).uniform(0.0, 3.0)
    h = build_full_ising(power_law_couplings(n, JMAX, alpha), b_field)
    times = np.linspace(0.0, 5.0 / JMAX, 8)
    for cap in (DENSE_CAP, 0):  # dense, then Krylov
        monkeypatch.setattr("ionquench.exact.DENSE_CAP", cap)
        c = evolve(h, pattern, times).c_series
        mirror = evolve(h, mirrored(pattern), times).c_series
        assert np.abs(c + mirror).max() < 1e-12


@pytest.mark.parametrize("flipped", [(1,), (2, 5)])
def test_gap_weights_are_level_weights_of_the_full_oracle(flipped):
    """At alpha = 0 every coupling is equal and the spectrum is highly
    degenerate; each level weighs |P_E psi|^2 whatever basis eigh picks
    inside it, so the gaps match levels grouped on the 2^N oracle."""
    n = 6
    jm = power_law_couplings(n, JMAX, 0.0)
    b_field = 10.0 * JMAX
    evals, evecs = np.linalg.eigh(dense_ising_oracle(jm.j_script, b_field))
    overlap2 = (evecs.T @ product_state(flipped, n)) ** 2
    levels = np.split(np.arange(evals.size),
                      np.flatnonzero(np.diff(evals) > 1e-9 * JMAX) + 1)
    energy = np.array([evals[lev].mean() for lev in levels])
    weight = np.array([overlap2[lev].sum() for lev in levels])
    m, k = np.triu_indices(len(levels), k=1)
    w = weight[m] * weight[k]
    keep = w > 1e-12
    oracle = np.array(sorted(zip(np.abs(energy[m] - energy[k])[keep],
                                 w[keep])))

    pattern = ExcitationPattern(n, flipped)
    pairs = np.array(sorted(zip(*level_gaps(build_full_ising(jm, b_field),
                                            pattern))))
    assert pairs.shape == oracle.shape
    assert np.abs(pairs[:, 0] - oracle[:, 0]).max() < 1e-10 * JMAX
    assert np.abs(pairs[:, 1] - oracle[:, 1]).max() < 1e-12


def test_xy_sector_is_one_block():
    jm = power_law_couplings(5, JMAX, 1.0)
    h = build_xy_sector(jm, 10.0 * JMAX, 2)
    block, local = h.sector(ExcitationPattern(5, (2, 4)))
    assert block is h.block(0)
    expect = sorted(sum(1 << i for i in c) for c in combinations(range(5), 2))
    assert block.dimension == h.dimension
    assert np.array_equal(block.states, expect)
    assert block.states[local] == 0b1010
    again, _ = h.sector(ExcitationPattern(5, (1, 5)))
    assert again is block


@pytest.mark.parametrize("model", ["full", "xy"])
@pytest.mark.parametrize("n", SIZES)
def test_quench_conserves_energy(model, n):
    """<H> of the dense and the Chebyshev states stays at its t = 0 value
    within 1e-8 of the block's spectral radius (the t = 0 value itself is
    0 for a half-filled pattern).  The phase the Chebyshev states drop is
    global, so <H> does not see it."""
    jm, b_field, pattern = random_case(n)
    h = build(model, jm, b_field, pattern)
    block, local = h.sector(pattern)
    evals, evecs = merged_spectrum(block)
    times = np.linspace(0.0, 20.0 / JMAX, 9)
    psi = np.zeros((2, times.size, 2**n), dtype=complex)
    psi[0][:, block.states] = (np.exp(-1j * np.outer(times, evals))
                                * evecs[local]) @ evecs.T
    re, im = _chebyshev_states(block.op, local, times)
    psi[1][:, block.states] = re + 1j * im
    e0 = energy_expectation(h, product_state(pattern.flipped, n))
    scale = np.abs(evals).max()
    for states in psi:
        drift = [energy_expectation(h, p) - e0 for p in states]
        assert np.abs(drift).max() < 1e-8 * scale


def mirror_case(n, uniform=False):
    """random_case with J made exactly inversion symmetric; uniform
    couplings instead make the spectrum exactly degenerate."""
    jm, b_field, pattern = random_case(n)
    j = power_law_couplings(n, JMAX, 0.0).j if uniform else jm.j
    jm = CouplingMatrix.from_full((j + j[::-1, ::-1]) / 2.0)
    return jm, b_field, pattern


def unsplit_reference(block, local):
    """Spectrum, level energies, level weights and diagonal ensemble from
    one eigh of the whole block; levels group at 1e-9 of the spread."""
    evals, evecs = np.linalg.eigh(dense_block(block.op))
    spread = max(evals[-1] - evals[0], abs(evals[-1]), 1e-300)
    levels = np.split(np.arange(evals.size),
                      np.flatnonzero(np.diff(evals) > 1e-9 * spread) + 1)
    amps = evecs[local]
    prob = sum(np.abs(evecs[:, lev] @ amps[lev]) ** 2 for lev in levels)
    energy = np.array([evals[lev].mean() for lev in levels])
    weight = np.array([(amps[lev] ** 2).sum() for lev in levels])
    return evals, levels, energy, weight, prob @ block.zmat


def assert_matches_unsplit(h, pattern):
    block, local = h.sector(pattern)
    evals, levels, energy, weight, ensemble = unsplit_reference(block, local)
    spread = max(evals[-1] - evals[0], abs(evals[-1]))
    assert np.abs(merged_spectrum(block)[0] - evals).max() <= 1e-10 * spread
    assert np.abs(diagonal_ensemble(h, pattern) - ensemble).max() < 1e-8
    m, k = np.triu_indices(len(levels), k=1)
    w = weight[m] * weight[k]
    keep = w > 1e-12
    gaps, weights = level_gaps(h, pattern)
    assert gaps.shape == weights.shape == (keep.sum(),)
    assert np.abs(gaps
                  - np.abs(energy[m] - energy[k])[keep]).max(initial=0.0) \
        <= 1e-10 * spread
    assert np.abs(weights - w[keep]).max(initial=0.0) < 1e-10
    return levels


@pytest.mark.parametrize("model", ["full", "xy"])
@pytest.mark.parametrize("n", range(4, 9))
def test_mirror_split_matches_unsplit_eigh(model, n):
    jm, b_field, pattern = mirror_case(n)
    h = build(model, jm, b_field, pattern)
    block, _ = h.sector(pattern)
    assert block.mirror is not None
    assert np.array_equal(block.mirror[block.mirror],
                          np.arange(block.dimension))
    assert_matches_unsplit(h, pattern)


@pytest.mark.parametrize("model", ["full", "xy"])
@pytest.mark.parametrize("n", range(2, 9))
def test_half_propagation_matches_the_oracle(model, n):
    """Inversion-symmetric J, both parities of the full model and every
    XY sector: dense evolution through the mirror halves matches the 2^N
    Kronecker oracle from a start state of each kind the block holds, a
    self-mirror state (no odd amplitude) and both states of a pair."""
    jm, b_field, _ = mirror_case(n)
    if model == "full":
        oracle = dense_ising_oracle(jm.j_script, b_field)
        reps = [build_full_ising(jm, b_field)]
    else:
        oracle = dense_xy_oracle(jm.j_script, b_field)
        assert not oracle.imag.any()  # flip-flops are real: a real eigh
        oracle = oracle.real
        reps = [build_xy_sector(jm, b_field, k) for k in range(n + 1)]
    times = np.linspace(0.0, 5.0 / JMAX, 8)
    kinds = set()
    for h in reps:
        for key in (0, 1) if model == "full" else (0,):
            block = h.block(key)
            assert block.mirror is not None
            for kind, states in zip(("self", "lo", "hi"), block.halves):
                if not states.size:
                    continue
                mask = int(block.states[states[-1]])
                pattern = ExcitationPattern(n, tuple(
                    i + 1 for i in range(n) if mask >> i & 1))
                ref = dense_sz_dynamics(
                    oracle, product_state(pattern.flipped, n), times, n)
                trace = evolve(h, pattern, times)
                assert h.dense
                assert np.abs(trace.sz - ref).max() < 1e-10
                kinds.add(kind)
    assert kinds == {"self", "lo", "hi"}


def test_dense_memory_stays_within_the_halves():
    """N = 11 at alpha = 0.55 (blocks of 1024): the first dense evolve,
    which diagonalises the block, peaks under 20 MB of traced memory,
    and a cached evolve plus the diagonal ensemble stay under one dense
    (dim, dim) float block; no merged eigenvector matrix is formed."""
    n = 11
    h = build_full_ising(power_law_couplings(n, JMAX, 0.55), 10.0 * JMAX)
    pattern = ExcitationPattern(n, (2,))
    times = default_time_grid(JMAX)
    tracemalloc.start()
    try:
        evolve(h, pattern, times)
        _, first = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        evolve(h, pattern, times)
        diagonal_ensemble(h, pattern)
        _, cached = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = h.sector(pattern)[0].dimension
    assert dim == 1024
    assert first < 20e6
    assert cached < 8 * dim**2


def test_first_half_spectrum_stays_below_one_dense_block():
    """The first half_spectrum of an N = 11 block (1024 states) peaks
    below one dense (dim, dim) float block of traced memory: its halves
    are filled from the block's entries one at a time, and no whole
    block is formed."""
    h = build_full_ising(power_law_couplings(11, JMAX, 0.55), 10.0 * JMAX)
    block = h.block(0)
    tracemalloc.start()
    try:
        block.half_spectrum
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.dimension == 1024
    assert peak < 8 * block.dimension**2


@pytest.mark.parametrize("model", ["full", "xy"])
@pytest.mark.parametrize("n", [5, 6])
def test_degenerate_levels_straddle_the_mirror_halves(model, n):
    """With uniform couplings some exactly degenerate levels hold states of
    both mirror parities; the merged spectrum keeps each level whole."""
    jm, b_field, _ = mirror_case(n, uniform=True)
    pattern = ExcitationPattern(n, (1, 2))
    h = build(model, jm, b_field, pattern)
    block, _ = h.sector(pattern)
    levels = assert_matches_unsplit(h, pattern)
    evecs = merged_spectrum(block)[1]
    mirror_parity = np.rint((evecs[block.mirror] * evecs).sum(axis=0))
    assert np.array_equal(np.abs(mirror_parity), np.ones(block.dimension))
    assert any(np.unique(mirror_parity[lev]).size == 2 for lev in levels)


@pytest.mark.parametrize("model", ["full", "xy"])
@pytest.mark.parametrize("n", [5, 6])
def test_asymmetric_couplings_fall_back_to_one_eigh(model, n, eigh_sizes):
    """J 1e-9 relative off inversion symmetry fails the mirror check: the
    block (a whole parity sector of the full model) gets one unsplit
    eigh, bit for bit."""
    jm, b_field, pattern = mirror_case(n)
    j = jm.j.copy()
    j[0, 1] = j[1, 0] = j[0, 1] + 1e-9 * np.abs(j).max()
    h = build(model, CouplingMatrix.from_full(j), b_field, pattern)
    block, _ = h.sector(pattern)
    assert block.mirror is None
    spectrum = merged_spectrum(block)
    assert eigh_sizes == [block.dimension]
    evals, evecs = np.linalg.eigh(dense_block(block.op))
    assert np.array_equal(spectrum[0], evals)
    assert np.array_equal(spectrum[1], evecs)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_spectra_equal_rebuilt_models(n, symmetric):
    """Each draw's slice of a block's stacked spectra equals, bit for bit,
    the spectrum of the block rebuilt from J -> s J: both parities of the
    full model and every XY sector, split into mirror halves or not."""
    jm, b_field, _ = (mirror_case if symmetric else random_case)(n)
    scales = np.array([0.7, 1.0, 1.0 + 2.0**-40, 1.3])

    def rebuilt(s, k):
        couplings = scaled_couplings(jm, s)
        return (build_full_ising(couplings, b_field) if k is None
                else build_xy_sector(couplings, b_field, k))

    for k in [None] + list(range(n + 1)):
        h = rebuilt(1.0, k) if k is None else build_xy_sector(jm, b_field, k)
        for key in (0, 1) if k is None else (0,):
            block = h.block(key)
            # two sites are inversion symmetric whatever J is
            assert (block.mirror is not None) == (symmetric or n == 2)
            halves = block.half_spectra(scales)
            for d, s in enumerate(scales):
                ref = rebuilt(s, k).block(key).half_spectrum
                for (evals, evecs), (ref_e, ref_v) in zip(halves, ref):
                    assert np.array_equal(evals[d], ref_e)
                    assert np.array_equal(evecs[d], ref_v)


def noisy_readout_case():
    """The odd block of an inversion-symmetric 7-ion chain at B = 2 J_max
    with both mirror halves filled, its sites 1 and 7, and three draws."""
    jm, _, _ = mirror_case(7)
    block, idx0 = build_full_ising(jm, 2.0 * JMAX).sector(
        ExcitationPattern(7, (1,)))
    partner = int(block.mirror[idx0])
    spectra = block.half_spectra(np.array([0.97, 1.0, 1.02]))
    return block, [idx0, partner], spectra


@pytest.mark.parametrize("horizon", [25.0, 5000.0])
def test_uniform_grid_steps_its_phases_within_their_rounding(horizon):
    """On a linspace grid the readout takes cos and sin by angle
    addition.  The direct path rounds each phase t E by up to half an
    ulp, and so does each of the two phases added here, so the paths
    differ by up to a few ulps of the largest phase (|d sz| <= 2 |d psi|);
    4 ulps bound it.  That is 2.3e-13 at the paper's horizon of 25 / J_max
    (phases up to 361 rad) and 5.8e-11 at 5000 / J_max (7.2e4 rad)."""
    block, idx0s, spectra = noisy_readout_case()
    times = np.linspace(0.0, horizon / JMAX, 60)
    assert _uniform_step(times) == times[1]
    phase = times[-1] * max(np.abs(evals).max() for evals, _ in spectra)
    sz, _ = _dense_sz(block, idx0s, times, spectra)
    ref = direct_trig_dense_sz(block, idx0s, times, spectra)
    assert np.abs(sz - ref).max() <= 4 * np.spacing(phase)


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 50.0 / JMAX, 60) * (1.0 + 1e-9 * (np.arange(60) == 17)),
    np.array([-3.0, -1.0, 0.0, 0.0, 2.0, 2.0, 7.0]) / JMAX,
    np.array([4.0 / JMAX]),
], ids=["nudged-point", "negative-and-repeated", "one-point"])
def test_other_grids_take_direct_trig(times):
    """A grid that does not step evenly, one point of it off by 1e-9, or
    a single time (the shots callback) takes cos and sin of every phase,
    bit for bit those of the direct readout."""
    block, idx0s, spectra = noisy_readout_case()
    assert _uniform_step(times) is None
    sz, _ = _dense_sz(block, idx0s, times, spectra)
    assert np.array_equal(sz, direct_trig_dense_sz(block, idx0s, times,
                                                   spectra))


def test_time_chunks_step_their_own_phases(monkeypatch):
    """_sz_series hands the readout the grid in chunks; each chunk of a
    uniform grid steps from its own first time with the grid's step."""
    block, idx0s, spectra = noisy_readout_case()
    times = np.linspace(0.0, 25.0 / JMAX, 60)
    whole, _ = _dense_sz(block, idx0s, times, spectra)
    chunks = []
    real_sz_series = exact._sz_series
    monkeypatch.setattr("ionquench.exact._TIME_CHUNK",
                        17 * block.dimension * len(idx0s) * 3)
    monkeypatch.setattr("ionquench.exact._sz_series",
                        lambda tt, readout, n: real_sz_series(
                            tt, lambda t: chunks.append(t.size)
                            or readout(t), n))
    split, _ = _dense_sz(block, idx0s, times, spectra)
    assert chunks == [17, 17, 17, 9]
    assert np.abs(split - whole).max() < 1e-12


# At N = 6 no odd-parity state is its own mirror, so the odd block of 32
# splits into mirror halves of 16 + 16; the even block holds the 8
# self-mirror states and splits into 8 + 12 = 20 even and 12 odd.
ODD_HALVES, EVEN_HALVES = [16, 16], [20, 12]


def test_one_eigh_serves_pattern_and_mirror(eigh_sizes):
    n = 6
    h = build_full_ising(power_law_couplings(n, JMAX, 0.55), 10.0 * JMAX)
    times = np.linspace(0.0, 5.0 / JMAX, 6)
    for pattern in (ExcitationPattern(n, (2,)), ExcitationPattern(n, (5,))):
        evolve(h, pattern, times)
        diagonal_ensemble(h, pattern)
    assert eigh_sizes == ODD_HALVES


def test_cmd_evolve_diagonalises_each_sector_once(tmp_path, eigh_sizes):
    n = 6
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_ions = {n}\nmodel = exact\npatterns = 1; 6\n"
                   "n_times = 6\nt_max_over_jmax = 5\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    # the GGE's spin-wave build diagonalises the n x n hopping matrix;
    # both traces and both diagonal ensembles share one sector spectrum
    assert sorted(eigh_sizes) == sorted([n] + ODD_HALVES)


def test_noise_free_patterns_of_a_block_share_one_readout(tmp_path,
                                                         monkeypatch):
    """Patterns 1 and 6 of 6 ions both lie in the odd block, so the
    noise-free run, the draw s = 1, propagates them in one _dense_sz."""
    calls = []
    monkeypatch.setattr("ionquench.exact._dense_sz",
                        lambda block, idx0s, *rest: (
                            calls.append(len(idx0s))
                            or _dense_sz(block, idx0s, *rest)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ions = 6\nmodel = exact\npatterns = 1; 6\n"
                   "n_times = 6\nt_max_over_jmax = 5\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [2]


def test_noise_draws_share_one_spectrum_per_sector(tmp_path, eigh_sizes):
    n, samples = 6, 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_ions = {n}\nmodel = exact\npatterns = 1; 6\n"
                   f"n_times = 6\nt_max_over_jmax = 5\n"
                   f"noise_samples = {samples}\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    # one sector spectrum per noise draw serves both patterns, and one
    # noise-free spectrum serves both diagonal ensembles
    assert sorted(eigh_sizes) == sorted([n] + ODD_HALVES * (samples + 1))


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs one entry per call;
    returns the log."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_exact_shots_diagonalise_each_sector_once(tmp_path, eigh_sizes,
                                                  monkeypatch):
    """Preparation errors keep the 7 non-empty subsets of sites 1, 3, 5,
    of both parities; one quench call on one full model serves all of
    them, with one spectrum and one stacked readout per parity sector."""
    builds = counted(monkeypatch, cli, "build_full_ising")
    quenches = counted(monkeypatch, cli, "evolve_draws")
    readouts = counted(monkeypatch, exact, "_dense_sz")
    n = 6
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_ions = {n}\nmodel = exact\npatterns = 1,3,5\n"
                   "prep_fidelity = 0.5\nn_shots = 200\n"
                   "shot_time_over_jmax = 5\n")
    assert main(["shots", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 1
    assert len(quenches) == 1
    assert len(readouts) == 2
    assert sorted(eigh_sizes) == sorted(ODD_HALVES + EVEN_HALVES)


def test_spinwave_shots_build_one_system(tmp_path, monkeypatch):
    """The 7 non-empty subsets of sites 1, 3, 5 kept by preparation
    errors all evolve on one spin-wave system."""
    builds = counted(monkeypatch, cli, "build_spinwave")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ions = 6\nmodel = spinwave\npatterns = 1,3,5\n"
                   "prep_fidelity = 0.5\nn_shots = 200\n"
                   "shot_time_over_jmax = 5\n")
    assert main(["shots", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 1


def test_noise_free_spinwave_evolve_builds_one_system(tmp_path, monkeypatch):
    """The draw s = 1 and the GGE files share the command's one boson
    system, and the trace is that of a system built for it alone."""
    builds = counted(monkeypatch, cli, "build_spinwave")
    path = tmp_path / "run.cfg"
    path.write_text("n_ions = 6\nmodel = spinwave\npatterns = 1; 2,5\n"
                    "n_times = 9\nt_max_over_jmax = 4\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert len(builds) == 1
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    sw = build_spinwave(jm, cfg.b_field)
    times = default_time_grid(jm.j_max, 4, 9)
    for pattern in cfg.patterns:
        tag = cli._pattern_tag(pattern)
        assert np.array_equal(
            read_column(out / f"trace_spinwave_{tag}.csv", "sz"),
            quench_sz(sw, [pattern], times)[0].ravel())


def test_noisy_spinwave_draws_stream(tmp_path):
    """Spin-wave draws are summed one at a time: 64 draws of 2 patterns
    at N = 30 and T = 100 would stack to 3.1 MB, and the mean stays far
    below that."""
    path = tmp_path / "run.cfg"
    path.write_text("n_ions = 30\nmodel = spinwave\npatterns = 1; 30\n")
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    dyn = cli._Dynamics(cfg, jm)
    times = default_time_grid(jm.j_max, 25, 100)
    scales = noise_scales(NoiseModel(seed=3), 64)
    dyn.evolve_draws(cfg.patterns, times, scales[:2])  # one-time setup first
    tracemalloc.start()
    try:
        mean, err = dyn.evolve_draws(cfg.patterns, times, scales)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mean.shape == (2, 100, 30) and err is None
    assert peak < 1e6


@pytest.mark.parametrize("model", ["exact", "xy"])
def test_noisy_exact_draws_stream(tmp_path, model):
    """exact and xy draws are added into one (P, T, N) total a chunk at a
    time: 128 draws of 4 patterns at N = 7 and T = 300 would stack to
    8.6 MB of sz, yet the traced peak stays that of 8 draws."""
    path = tmp_path / "run.cfg"
    path.write_text(f"n_ions = 7\nmodel = {model}\n"
                    "patterns = 1; 7; 2,4; 4,6\n")
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    dyn = cli._Dynamics(cfg, jm)
    times = default_time_grid(jm.j_max, 25, 300)
    scales = noise_scales(NoiseModel(seed=3), 128)
    dyn.evolve_draws(cfg.patterns, times, scales[:2])  # one-time setup first
    peaks = []
    for n_draws in (8, 128):
        tracemalloc.start()
        try:
            mean, err = dyn.evolve_draws(cfg.patterns, times,
                                         scales[:n_draws])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert mean.shape == (4, 300, 7) and 0.0 <= err <= 1e-8
    assert peaks[1] < 1.5 * peaks[0]


def test_noise_free_krylov_shots_build_each_parity_block_once(tmp_path,
                                                               monkeypatch):
    """Preparation errors keep the 7 non-empty subsets of sites 1, 3, 5 at
    N = 13, a Krylov size; their draws s = 1 run on the command's one
    model, so its two parity blocks serve all of them."""
    builds = []
    real = _IsingBlock.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_IsingBlock, "__init__", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ions = 13\nmodel = exact\npatterns = 1,3,5\n"
                   "prep_fidelity = 0.5\nn_shots = 400\n"
                   "shot_time_over_jmax = 1\n")
    assert main(["shots", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 2


def read_column(path, column):
    lines = path.read_text().splitlines()
    header = lines[0].lstrip("# ").split(",")
    k = header.index(column)
    return np.array([float(line.split(",")[k]) for line in lines[1:]])


def test_noise_averaged_traces_match_per_pattern_oracle(tmp_path):
    """Sharing a draw's model across patterns changes no bit: the CSVs
    equal noise averages that rebuild the Hamiltonian for every pattern."""
    samples = 4
    path = tmp_path / "run.cfg"
    path.write_text(f"n_ions = 5\nmodel = exact\npatterns = 2; 1,4\n"
                    f"n_times = 7\nt_max_over_jmax = 6\n"
                    f"noise_samples = {samples}\nseed = 19\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    r = cfg.raw
    times = default_time_grid(jm.j_max, r["t_max_over_jmax"], r["n_times"])
    for pattern in cfg.patterns:
        oracle = noise_average(
            lambda scales: ([evolve(build_full_ising(scaled_couplings(jm, s),
                                                    cfg.b_field),
                                   pattern, times).sz]
                            for s in scales),
            times, cfg.noise_model(), samples)[0]
        tag = cli._pattern_tag(pattern)
        trace = out / f"trace_exact_{tag}.csv"
        assert np.array_equal(read_column(trace, "t_seconds"),
                              np.repeat(times, 5))
        assert np.array_equal(read_column(trace, "sz"), oracle.sz.ravel())
        assert np.array_equal(read_column(out / f"c_exact_{tag}.csv", "C"),
                              oracle.c_series)


@pytest.mark.parametrize("model,patterns", [
    # the odd block of 32 states holds two patterns: chunks of 2 draws
    ("exact", "1; 6; 2,3"),
    # the k = 3 sector of 20 states holds two patterns: chunks of 4 draws
    ("xy", "1,2,3; 4,5,6; 2"),
    # one boson system scaled per draw, no stacked spectra
    ("spinwave", "1; 6; 2,3"),
])
def test_noisy_evolve_equals_mean_of_rebuilt_draws(tmp_path, monkeypatch,
                                                   model, patterns):
    """Draw chunks that do not divide the draw count change no bit: the
    CSVs equal np.mean over per-draw models rebuilt from J -> s J, or for
    spin waves over the scaled(s) of the system of J."""
    chunks = []
    real = Sector.half_spectra
    monkeypatch.setattr(Sector, "half_spectra", lambda self, scales: (
        chunks.append(len(scales)) or real(self, scales)))
    samples = 5 if model == "exact" else 9
    path = tmp_path / "run.cfg"
    path.write_text(f"n_ions = 6\nmodel = {model}\npatterns = {patterns}\n"
                    f"n_times = 200\nt_max_over_jmax = 6\nalpha = 0.8\n"
                    f"noise_samples = {samples}\nseed = 23\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(set(chunks)) == {"exact": [1, 2], "xy": [1, 4],
                                   "spinwave": []}[model]
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    times = default_time_grid(jm.j_max, 6, 200)
    scales = json.loads((out / "manifest.json").read_text())[
        "diagnostics"]["noise_scales"]
    assert len(scales) == samples
    if model == "spinwave":
        sw = build_spinwave(jm, cfg.b_field)
        draws = [[quench_sz(sw.scaled(s), [p], times)[0]
                  for p in cfg.patterns] for s in scales]
    else:
        draws = [[evolve(dyn.rep(p), p, times).sz for p in cfg.patterns]
                 for dyn in (cli._Dynamics(cfg, scaled_couplings(jm, s))
                             for s in scales)]
    for p, pattern in enumerate(cfg.patterns):
        mean = np.mean([sz[p] for sz in draws], axis=0)
        tag = cli._pattern_tag(pattern)
        assert np.array_equal(
            read_column(out / f"trace_{model}_{tag}.csv", "sz"), mean.ravel())


def test_noisy_spin_waves_match_systems_rebuilt_per_draw(tmp_path):
    """Scaling the eigenvalues of J instead of diagonalizing each s J
    moves the spin-wave draw mean by round-off only: the CSV lies within
    1e-12 of the mean over systems rebuilt from J -> s J."""
    path = tmp_path / "run.cfg"
    path.write_text("n_ions = 9\nmodel = spinwave\npatterns = 1; 5; 2,7\n"
                    "n_times = 40\nalpha = 0.8\nnoise_samples = 12\n"
                    "seed = 37\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    times = default_time_grid(jm.j_max, 25, 40)
    scales = json.loads((out / "manifest.json").read_text())[
        "diagnostics"]["noise_scales"]
    rebuilt = np.mean([quench_sz(build_spinwave(scaled_couplings(jm, s),
                                                cfg.b_field),
                                 cfg.patterns, times) for s in scales],
                      axis=0)
    for pattern, want in zip(cfg.patterns, rebuilt):
        got = read_column(out / f"trace_spinwave_{cli._pattern_tag(pattern)}"
                               ".csv", "sz")
        assert np.abs(got - want.ravel()).max() <= 1e-12


def test_dense_patterns_share_the_model_beside_krylov_ones(tmp_path,
                                                          monkeypatch,
                                                          sector_builds):
    """A Krylov-sized xy sector (k = 7 of 15 ions, 6435 states) and the
    dense k = 1 sector both stay on the command's one model: each and
    its block are built once for all draws, and the CSVs still equal
    np.mean over per-draw models rebuilt from J -> s J."""
    built = []
    real = cli.build_xy_sector
    monkeypatch.setattr(cli, "build_xy_sector", lambda jm, b, k: (
        built.append(k) or real(jm, b, k)))
    path = tmp_path / "run.cfg"
    path.write_text("n_ions = 15\nmodel = xy\npatterns = 1; 1,2,3,4,5,6,7\n"
                    "n_times = 5\nt_max_over_jmax = 1\nnoise_samples = 3\n"
                    "seed = 29\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert built.count(1) == 1
    assert built.count(7) == 1
    assert sorted(sector_builds) == [15, 6435]
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    times = default_time_grid(jm.j_max, 1, 5)
    scales = json.loads((out / "manifest.json").read_text())[
        "diagnostics"]["noise_scales"]
    dyns = [cli._Dynamics(cfg, scaled_couplings(jm, s)) for s in scales]
    draws = [[evolve(dyn.rep(p), p, times) for p in cfg.patterns]
             for dyn in dyns]
    assert [dyns[0].rep(p).dense for p in cfg.patterns] == [True, False]
    for p, pattern in enumerate(cfg.patterns):
        mean = np.mean([traces[p].sz for traces in draws], axis=0)
        tag = cli._pattern_tag(pattern)
        assert np.array_equal(
            read_column(out / f"trace_xy_{tag}.csv", "sz"), mean.ravel())


def test_noisy_krylov_draws_share_the_full_model(tmp_path, monkeypatch,
                                                sector_builds):
    """Krylov-sized full-model draws evolve on the scaled ops of the
    command's one rep: build_full_ising runs once, each parity block is
    built once for all draws, and the CSVs equal np.mean over per-draw
    models rebuilt from J -> s J."""
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 16)
    built = []
    real = cli.build_full_ising
    monkeypatch.setattr(cli, "build_full_ising", lambda jm, b: (
        built.append(jm) or real(jm, b)))
    path = tmp_path / "run.cfg"
    path.write_text("n_ions = 5\nmodel = exact\npatterns = 1; 2,3; 5\n"
                    "n_times = 6\nt_max_over_jmax = 2\nnoise_samples = 3\n"
                    "seed = 31\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert len(built) == 1
    assert sector_builds == [16, 16]
    cfg = load_config(path)
    jm, _, _ = cfg.couplings()
    times = default_time_grid(jm.j_max, 2, 6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["derived"]["method"].values()) == {"krylov"}
    draws = [[evolve(build_full_ising(scaled_couplings(jm, s), cfg.b_field),
                     p, times)
              for p in cfg.patterns]
             for s in manifest["diagnostics"]["noise_scales"]]
    for p, pattern in enumerate(cfg.patterns):
        mean = np.mean([traces[p].sz for traces in draws], axis=0)
        tag = cli._pattern_tag(pattern)
        assert np.array_equal(
            read_column(out / f"trace_exact_{tag}.csv", "sz"), mean.ravel())


def test_one_dense_cap_governs_every_consumer(tmp_path, monkeypatch):
    """DENSE_CAP is read at call time, so one patch moves the dense/Krylov
    choice, the diagonal ensemble, the level gaps and both CLI commands."""
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 16)
    n = 5
    h = build_full_ising(power_law_couplings(n, JMAX, 0.55), 10.0 * JMAX)
    pattern = ExcitationPattern(n, (1,))
    assert not h.dense
    times = np.linspace(0.0, 2.0 / JMAX, 4)
    evolve(h, pattern, times)
    with pytest.raises(SizeError):
        diagonal_ensemble(h, pattern)
    with pytest.raises(SizeError):
        level_gaps(h, pattern)

    path = tmp_path / "run.cfg"
    path.write_text(f"n_ions = {n}\nmodel = exact\npatterns = 1; 2,3\n"
                    "n_times = 4\nt_max_over_jmax = 2\n")
    out = tmp_path / "evolve"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert not list(out.glob("diag_ensemble_*.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["method"] == {"p1": "krylov", "p2-3": "krylov"}
    assert main(["gaps", "--config", str(path),
                 "--out", str(tmp_path / "gaps")]) == 3


@pytest.fixture
def thread_log(monkeypatch):
    """The threads exact starts while the test runs."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(exact, "threading", SimpleNamespace(Thread=Counting))
    return started


@pytest.fixture
def pinned_two_cores(monkeypatch):
    """BLAS pinned to one thread on two usable cores: the worker rule then
    allows two threads."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(exact.os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("model,flips,blocks,workers", [
    # the odd and even parity sectors
    ("exact", ((1,), (7,), (2, 4), (4, 6)), 2, 2),
    # the k = 1 and k = 2 sectors
    ("xy", ((1,), (7,), (2, 4), (4, 6)), 2, 2),
    # the k = 1, 2 and 3 sectors, dealt over two threads and over three
    ("xy", ((1,), (2, 4), (1, 3, 5), (4, 6), (7,)), 3, 2),
    ("xy", ((1,), (2, 4), (1, 3, 5), (4, 6), (7,)), 3, 3),
])
def test_threaded_draws_equal_one_thread(monkeypatch, thread_log, model,
                                         flips, blocks, workers):
    """Blocks run on helper threads, switching every microsecond, give
    arrays equal to those of one thread, and only the threaded run
    starts helpers."""
    jm = power_law_couplings(7, JMAX, 0.55)
    dyn = cli._Dynamics(SimpleNamespace(model=model, b_field=B_FIELD), jm)
    patterns = [ExcitationPattern(7, sites) for sites in flips]
    quenches = [(dyn.rep(p), p) for p in patterns]
    assert len({id(h.sector(p)[0]) for h, p in quenches}) == blocks
    times = default_time_grid(JMAX, 25, 60)
    scales = noise_scales(NoiseModel(seed=5), 37)
    monkeypatch.setattr(exact, "_draw_workers", lambda n: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = exact.evolve_draws(quenches, times, scales)
    finally:
        sys.setswitchinterval(interval)
    assert len(thread_log) == workers - 1
    monkeypatch.setattr(exact, "_draw_workers", lambda n: 1)
    alone = exact.evolve_draws(quenches, times, scales)
    assert len(thread_log) == workers - 1
    for got, expect in zip(threaded, alone):
        assert np.array_equal(got, expect)


def test_helper_thread_simulation_error_exits_3(tmp_path, monkeypatch):
    """A unitarity failure in the block a helper thread runs reaches
    cli.main, which exits 3 once the helper has joined."""
    raised = []

    def fail_off_main(block, idx0s, *rest):
        if threading.current_thread() is not threading.main_thread():
            raised.append(block.dimension)
            raise exact.SimulationError("propagation lost unitarity")
        return _dense_sz(block, idx0s, *rest)

    monkeypatch.setattr(exact, "_draw_workers", lambda n: n)
    monkeypatch.setattr(exact, "_dense_sz", fail_off_main)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ions = 7\nmodel = exact\npatterns = 1; 2,4\n"
                   "n_times = 6\nnoise_samples = 3\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 3
    assert raised == [64]
    assert threading.active_count() == 1


@pytest.mark.parametrize("env,cores,blocks,workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2, 2),
    ({}, 2, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "one"}, 2, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 2, 1),
    ({"OMP_NUM_THREADS": "2"}, 4, 3, 2),
])
def test_draw_workers_divide_the_cores_by_the_blas_threads(
        monkeypatch, env, cores, blocks, workers):
    """min(blocks, usable cores // BLAS threads), the BLAS threads taken
    from OPENBLAS_NUM_THREADS before OMP_NUM_THREADS; one worker when
    neither holds a positive integer."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(exact.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    assert exact._draw_workers(blocks) == workers


@pytest.mark.parametrize("config", [
    # dense-full's shape: a pattern and its mirror, both in the odd block
    "n_ions = 9\nmodel = exact\npatterns = 3; 7\nn_times = 6\n",
    "n_ions = 13\nmodel = exact\npatterns = 3; 2,11\nt_max_over_jmax = 1\n"
    "n_times = 5\nnoise_samples = 2\n",
])
def test_one_block_and_krylov_runs_start_no_thread(tmp_path, thread_log,
                                                   pinned_two_cores, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert exact._draw_workers(2) == 2
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert thread_log == []


def test_pinned_blas_runs_the_two_parity_blocks_at_once(tmp_path, thread_log,
                                                        pinned_two_cores):
    """The headline memory run's patterns lie in both parity blocks, so
    with BLAS pinned on two cores one helper thread starts."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ions = 7\nmodel = exact\npatterns = 1; 7; 2,4; 4,6\n"
                   "n_times = 6\nnoise_samples = 3\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(thread_log) == 1
