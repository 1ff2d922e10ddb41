import math
import time
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.special import jv

from helpers import (B_FIELD, JMAX, dense_block, dense_ising_oracle,
                     dense_sz_dynamics, dense_xy_oracle, energy_expectation,
                     evolve, excitation_drift, one_shot_chebyshev_coefficients,
                     pattern_sz, product_state, scaled_couplings)
from ionquench.cli import main
from ionquench.coupling import CouplingMatrix, power_law_couplings
from ionquench.errors import SectorError, SizeError
from ionquench.exact import (_CHEBYSHEV_TAIL, HamiltonianRep,
                             _chebyshev_coefficients, _chebyshev_order,
                             build_full_ising, build_xy_sector,
                             default_time_grid, diagonal_ensemble,
                             evolve_draws)
from ionquench.observables import ExcitationPattern

TWO_PI = 2.0 * math.pi


def equilateral_couplings(j):
    full = np.full((3, 3), j)
    np.fill_diagonal(full, 0.0)
    return CouplingMatrix.from_full(full)


@pytest.mark.parametrize("n", [3, 5])
def test_full_matrix_matches_kron_oracle(n):
    jm = power_law_couplings(n, JMAX, 0.7)
    h = build_full_ising(jm, B_FIELD)
    ref = dense_ising_oracle(jm.j_script, B_FIELD)
    blocks = [h.block(key) for key in (0, 1)]
    even, odd = (block.states for block in blocks)
    for idx in (even, odd):
        assert np.array_equal(np.sort(idx), idx)
    assert np.array_equal(np.sort(np.concatenate((even, odd))),
                          np.arange(h.dimension))
    assert np.all(ref[np.ix_(even, odd)] == 0.0)
    for block in blocks:
        idx = block.states
        dense = dense_block(block.op)
        assert np.abs(dense - ref[np.ix_(idx, idx)]).max() == 0.0


def test_xy_sector_matches_restricted_oracle():
    n, k = 5, 2
    jm = power_law_couplings(n, JMAX, 1.33)
    h = build_xy_sector(jm, B_FIELD, k)
    ref = dense_xy_oracle(jm.j_script, B_FIELD)
    masks = h.block(0).states
    assert h.dimension == math.comb(n, k)
    block = dense_block(h.block(0).op)
    assert np.abs(block - ref[np.ix_(masks, masks)]).max() < 1e-9
    expect = sorted(sum(1 << i for i in c) for c in combinations(range(n), k))
    assert list(masks) == expect


def test_single_excitation_sector_is_hopping_matrix():
    n = 6
    jm = power_law_couplings(n, JMAX, 0.55)
    h = build_xy_sector(jm, B_FIELD, 1)
    expect = jm.j_script + B_FIELD * (2.0 - n) * np.eye(n)
    assert np.abs(dense_block(h.block(0).op) - expect).max() == 0.0


@pytest.mark.parametrize("sites", [(1,), (1, 3)])
def test_evolution_matches_dense_oracle(sites):
    n = 4
    jm = power_law_couplings(n, JMAX, 0.55)
    pattern = ExcitationPattern(n, sites)
    times = np.linspace(0.0, 25.0 / JMAX, 40)
    psi0 = product_state(sites, n)
    for build, oracle_h in (
        (build_full_ising, dense_ising_oracle(jm.j_script, B_FIELD)),
        (lambda a, b: build_xy_sector(a, b, len(sites)),
         dense_xy_oracle(jm.j_script, B_FIELD)),
    ):
        h = build(jm, B_FIELD)
        trace = evolve(h, pattern, times)
        ref = dense_sz_dynamics(oracle_h, psi0, times, n)
        assert np.abs(trace.sz - ref).max() < 1e-10


def test_krylov_agrees_with_dense(monkeypatch):
    jm = power_law_couplings(10, JMAX, 0.55)
    h = build_full_ising(jm, B_FIELD)
    pattern = ExcitationPattern(10, (4,))
    times = np.linspace(0.0, 10.0 / JMAX, 21)
    dense = evolve(h, pattern, times)
    assert h.dense
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 0)
    kry = evolve(h, pattern, times)
    assert not h.dense
    assert np.abs(dense.sz - kry.sz).max() < 1e-8


@pytest.mark.parametrize("times, budget_s", [
    (np.array([-3.0, -1.0, 0.0, 0.0, 2.0, 2.0, 7.0]) / JMAX, 2.0),
    (np.linspace(0.0, 25.0 / JMAX, 60), 5.0),
], ids=["negative-and-repeated", "long-horizon"])
def test_krylov_agrees_with_dense_on_any_sorted_grid(monkeypatch, times,
                                                     budget_s):
    """The Chebyshev order follows max |R t|, so times below zero are
    covered, and a long horizon costs one sparse product per order."""
    jm = power_law_couplings(10, JMAX, 0.55)
    h = build_full_ising(jm, B_FIELD)
    pattern = ExcitationPattern(10, (4,))
    dense = evolve(h, pattern, times)
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 0)
    start = time.perf_counter()
    kry = evolve(h, pattern, times)
    assert time.perf_counter() - start < budget_s
    assert not h.dense
    assert np.abs(dense.sz - kry.sz).max() < 1e-8


def test_chebyshev_order_matches_the_scipy_bessel_rule():
    """The numpy Bessel recurrence keeps the orders scipy's jv kept: one
    past the last k up to 1.5 z + 63 with |J_k(z)| >= _CHEBYSHEV_TAIL."""
    for z in np.geomspace(0.1, 1e4, 200):
        ks = np.arange(int(1.5 * z) + 64)
        expect = np.flatnonzero(np.abs(jv(ks, z)) >= _CHEBYSHEV_TAIL).max()
        assert _chebyshev_order(float(z)) == expect + 1
    assert _chebyshev_order(0.0) == 1


def test_chebyshev_coefficients_match_the_scipy_bessel_values():
    """One call at the order of the largest z, as a grid of times takes
    it: the even table holds (2 - delta_m0) (-1)^m J_2m(z) and the odd
    table -2 (-1)^m J_2m+1(z), each to 1e-13.  The t = 0 row is e_0: its
    odd part is exactly zero, its even part e_0 up to the FFT's rounding."""
    z = np.concatenate(([0.0], np.geomspace(0.1, 1e3, 50)))
    order = _chebyshev_order(float(z[-1]))
    even, odd = _chebyshev_coefficients(z, order)
    assert even.shape == (z.size, (order + 1) // 2)
    assert odd.shape == (z.size, order // 2)
    m = np.arange(even.shape[1])
    expect = np.where(m == 0, 1.0, 2.0) * (-1.0) ** m * jv(2 * m, z[:, None])
    assert np.abs(even - expect).max() < 1e-13
    m = np.arange(odd.shape[1])
    expect = -2.0 * (-1.0) ** m * jv(2 * m + 1, z[:, None])
    assert np.abs(odd - expect).max() < 1e-13
    assert np.all(odd[0] == 0.0)
    assert np.abs(even[0] - np.eye(1, even.shape[1])[0]).max() < 1e-15


@pytest.mark.parametrize("n_times,reach", [(7, 50.0), (21, 224.6),
                                          (60, 5615.0)])
def test_chebyshev_coefficients_in_time_chunks_equal_one_table(n_times,
                                                               reach):
    """The tables formed a few times at a time equal those formed for all
    times at once, bit for bit; reach 5615 is the N = 13, alpha = 0.55
    odd block's Weyl half-width times 25 / J_max."""
    z = np.linspace(0.0, reach, n_times)
    order = _chebyshev_order(reach)
    for got, expect in zip(_chebyshev_coefficients(z, order),
                           one_shot_chebyshev_coefficients(z, order)):
        assert np.array_equal(got, expect)


def test_chebyshev_coefficient_memory_does_not_grow_with_times():
    """At the paper horizon of the N = 13 odd block (60 times, order
    about 5700) the tables of every time at once would peak near 6 times
    the returned tables; chunked over times the peak stays below twice
    them, and adding times adds only their rows."""
    order = _chebyshev_order(5615.0)
    extra = []
    for n_times in (60, 240):
        z = np.linspace(0.0, 5615.0, n_times)
        tracemalloc.start()
        try:
            even, odd = _chebyshev_coefficients(z, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = even.nbytes + odd.nbytes
        assert peak < 2 * tables
        extra.append(peak - tables)
    assert extra[1] < 1.1 * extra[0]


def test_krylov_horizon_above_the_work_budget_raises_first(monkeypatch,
                                                           tmp_path):
    """N = 13 at 1e7 / J_max reaches |R t| of about 2.2e9, billions of
    coefficient entries: evolve raises SizeError, and the CLI exits 3,
    before any Bessel value, coefficient table or state is formed."""
    def refuse(*args):
        raise AssertionError("expansion formed above the work budget")

    monkeypatch.setattr("ionquench.exact._bessel_j", refuse)
    monkeypatch.setattr("ionquench.exact._chebyshev_coefficients", refuse)
    h = build_full_ising(power_law_couplings(13, JMAX, 0.55), B_FIELD)
    times = default_time_grid(JMAX, 1e7, 60)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="Chebyshev expansion"):
            evolve(h, ExcitationPattern(13, (1,)), times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ions = 13\nmodel = exact\npatterns = 1\n"
                   "t_max_over_jmax = 1e7\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 3


def test_krylov_zero_width_block_is_a_pure_phase(monkeypatch):
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 0)
    zero = np.zeros((5, 5))
    h = build_full_ising(CouplingMatrix(j=zero, j_script=zero.copy(),
                                        j_max=0.0), 0.0)
    pattern = ExcitationPattern(5, (2, 5))
    trace = evolve(h, pattern, np.linspace(0.0, 3.0, 4))
    assert not h.dense
    assert np.array_equal(trace.sz, np.tile(pattern_sz(pattern), (4, 1)))


def test_auto_method_respects_dense_cap(monkeypatch):
    jm = power_law_couplings(7, JMAX, 1.0)
    h = build_full_ising(jm, B_FIELD)
    pattern = ExcitationPattern(7, (3,))
    times = np.linspace(0.0, 2.0 / JMAX, 4)
    evolve(h, pattern, times)
    assert h.dense
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 64)
    evolve(h, pattern, times)
    assert not h.dense


@pytest.mark.parametrize("cap", [0, 4096])
def test_evolve_needs_sorted_times(monkeypatch, cap):
    """Krylov (cap 0) and dense (cap 4096) runs both reject unsorted times."""
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", cap)
    jm = power_law_couplings(4, JMAX, 1.0)
    h = build_full_ising(jm, B_FIELD)
    times = np.array([0.0, 2.0, 1.0]) / JMAX
    with pytest.raises(ValueError):
        evolve(h, ExcitationPattern(4, (1,)), times)


@pytest.mark.parametrize("model", ["exact", "xy"])
@pytest.mark.parametrize("n_quenches, scales", [
    (1, []), (1, [0.0]), (1, [1.0, -0.5]), (1, [np.nan]), (0, [1.0])])
def test_evolve_draws_rejects_meaningless_draws(model, n_quenches, scales):
    """No draw, a scale J -> s J with s <= 0 and no quench all raise."""
    jm = power_law_couplings(4, JMAX, 1.0)
    h = (build_full_ising(jm, B_FIELD) if model == "exact"
         else build_xy_sector(jm, B_FIELD, 1))
    quenches = [(h, ExcitationPattern(4, (2,)))] * n_quenches
    with pytest.raises(ValueError):
        evolve_draws(quenches, np.linspace(0.0, 1.0 / JMAX, 3), scales)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fails a test that enumerates any block state."""
    def refuse(*args):
        raise AssertionError("block states enumerated")

    monkeypatch.setattr("ionquench.exact._bits", refuse)


def refused_before_enumeration(build, label):
    """build() raises SizeError naming label, with a traced peak under
    8 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=label):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# model, N, k, horizon in 1/J_max, times, admitted, field in units of B_FIELD
SIZE_TABLE = [
    ("exact", 17, None, 25.0, 60, True, 1.0),
    ("exact", 18, None, 25.0, 60, True, 1.0),
    ("exact", 20, None, 1.0, 5, True, 1.0),
    ("exact", 21, None, 1.0, 5, True, 1.0),
    ("xy", 18, 9, 1.0, 2, True, 1.0),
    ("exact", 22, None, 1.0, 5, False, 1.0),
    ("xy", 20, 10, 1.0, 2, False, 1.0),
    ("exact", 13, None, 1e7, 60, False, 1.0),
    ("exact", 13, None, 1e7, 60, False, 0.0),
    ("xy", 16, 8, 1e7, 60, False, 1.0),
    ("exact", 20, None, 25.0, 60, False, 1.0),
    ("exact", 30, None, 25.0, 60, False, 1.0),
    ("xy", 40, 20, 25.0, 60, False, 1.0),
    ("xy", 25, 12, 25.0, 60, False, 1.0),
    ("exact", 100, None, 25.0, 60, False, 1.0),
]


@pytest.mark.parametrize(
    "model, n, k, horizon, n_times, admitted, field", SIZE_TABLE,
    ids=["-".join(map(str, row[:6]))
         + ("" if row[6] == 1.0 else f"-field{row[6]:g}")
         for row in SIZE_TABLE])
def test_size_rule_admits_and_refuses(no_enumeration, model, n, k,
                                      horizon, n_times, admitted, field):
    """The size rule on the default power-law chain, from the rep alone:
    no block state is enumerated and no state propagates.  A long
    horizon is refused on an XY sector, whose field energies are all
    equal, and on a parity sector without a field, by the couplings'
    spread alone."""
    jm = power_law_couplings(n, JMAX, 0.55)

    def check():
        h = (build_full_ising(jm, field * B_FIELD) if model == "exact"
             else build_xy_sector(jm, field * B_FIELD, k))
        h.check_size(default_time_grid(JMAX, horizon, n_times))

    if admitted:
        check()
    else:
        with pytest.raises(SizeError):
            check()


def test_size_rule_refuses_overflowing_couplings():
    """Couplings near 1e304 overflow J_ij^2.  The floor on R stays finite,
    so a 2^29-state parity sector is refused when the rep is made, with
    no RuntimeWarning, and N = 5 with the same couplings is admitted."""
    def rep(n):
        j = power_law_couplings(n, 1e304, 0.55).j_script
        return HamiltonianRep(n_ions=n, b_field=1.0, j_script=j)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SizeError):
            rep(30)
        rep(5).check_size(np.array([0.0]))


@pytest.mark.parametrize("model, n, k, field", [
    ("xy", 8, 3, 1.0), ("xy", 10, 5, 1.0), ("xy", 7, 1, 1.0),
    ("xy", 6, 0, 1.0), ("exact", 6, None, 0.0), ("exact", 7, None, 1.0),
    ("exact", 8, None, 0.3 * JMAX / B_FIELD)])
def test_half_width_floor_bounds_the_spectrum(model, n, k, field):
    """The size rule's bound before enumeration lies below each block's
    half spread, for the couplings and for a draw 0.8 J; on an XY sector
    it is the spectrum's standard deviation."""
    jm = power_law_couplings(n, JMAX, 0.55)

    def rep(couplings):
        return (build_full_ising(couplings, field * B_FIELD)
                if model == "exact" else
                build_xy_sector(couplings, field * B_FIELD, k))

    for scale in (1.0, 0.8):
        bound = rep(jm)._half_width_floor(scale)
        draw = rep(scaled_couplings(jm, scale))
        for key in ((0,) if model == "xy" else (0, 1)):
            evals = np.concatenate(
                [e for e, _ in draw.block(key).half_spectrum])
            assert bound <= (evals.max() - evals.min()) / 2.0 * (1 + 1e-12)
            if model == "xy":
                assert bound == pytest.approx(evals.std(), rel=1e-12,
                                              abs=1e-9 * JMAX)


def test_full_space_cap(no_enumeration):
    """The N = 21 parity sectors fit the float budget; those of N = 22, 30
    and 100 spins are refused before any state is enumerated."""
    jm = power_law_couplings(21, JMAX, 1.0)
    assert build_full_ising(jm, B_FIELD).dimension == 2**21
    for n in (22, 30, 100):
        jm = power_law_couplings(n, JMAX, 1.0)
        refused_before_enumeration(lambda: build_full_ising(jm, B_FIELD),
                                   f"parity sector of {2**(n - 1)} states")


@pytest.mark.parametrize("n, k", [(18, 9), (20, 10), (24, 12), (25, 12),
                                  (40, 20)])
def test_xy_sector_cap(no_enumeration, n, k):
    """The XY sector C(18, 9) fits the float budget; the larger ones are
    refused before any state is enumerated."""
    jm = power_law_couplings(n, JMAX, 1.0)
    if n == 18:
        assert build_xy_sector(jm, B_FIELD, k).dimension == math.comb(n, k)
    else:
        refused_before_enumeration(lambda: build_xy_sector(jm, B_FIELD, k),
                                   f"XY sector of {math.comb(n, k)} states")


def test_state_index_validation():
    jm = power_law_couplings(5, JMAX, 1.0)
    full = build_full_ising(jm, B_FIELD)
    block, idx = full.sector(ExcitationPattern(5, ()))
    assert block.states[idx] == 0
    block, idx = full.sector(ExcitationPattern(5, (1, 3)))
    assert block.states[idx] == 0b101
    with pytest.raises(ValueError):
        full.sector(ExcitationPattern(4, (1,)))
    sector = build_xy_sector(jm, B_FIELD, 1)
    with pytest.raises(SectorError):
        sector.sector(ExcitationPattern(5, (1, 2)))
    block, idx = sector.sector(ExcitationPattern(5, (3,)))
    assert block.states[idx] == 0b100


def test_diagonal_ensemble_matches_long_time_average():
    jm = power_law_couplings(4, JMAX, 1.0)
    h = build_full_ising(jm, B_FIELD)
    pattern = ExcitationPattern(4, (2,))
    de = diagonal_ensemble(h, pattern)
    times = np.linspace(0.0, 2000.0 / JMAX, 40001)
    avg = evolve(h, pattern, times).sz.mean(axis=0)
    assert np.abs(avg - de).max() < 1e-3


def test_diagonal_ensemble_keeps_degenerate_coherences():
    """An equilateral triangle has exact doublets; dropping their
    cross terms mispredicts the plateau by order one."""
    h = build_full_ising(equilateral_couplings(JMAX), B_FIELD)
    pattern = ExcitationPattern(3, (1,))
    de = diagonal_ensemble(h, pattern)
    assert de[1] == pytest.approx(de[2], abs=1e-12)

    evals, evecs = np.linalg.eigh(dense_ising_oracle(h.j_script, B_FIELD))
    amps = evecs[sum(1 << (i - 1) for i in pattern.flipped), :]
    zmat = 2.0 * ((np.arange(8)[:, None] >> np.arange(3)) & 1) - 1.0
    naive = (np.abs(amps) ** 2) @ ((np.abs(evecs.T) ** 2) @ zmat)
    assert np.abs(naive - de).max() > 0.1

    times = np.linspace(0.0, 5000.0 / JMAX, 100001)
    avg = evolve(h, pattern, times).sz.mean(axis=0)
    assert np.abs(avg - de).max() < 5e-4


def test_diagonal_ensemble_guards(monkeypatch):
    jm = power_law_couplings(5, JMAX, 1.0)
    h = build_full_ising(jm, B_FIELD)
    monkeypatch.setattr("ionquench.exact.DENSE_CAP", 8)
    with pytest.raises(SizeError):
        diagonal_ensemble(h, ExcitationPattern(5, (1,)))


def test_energy_expectation_of_basis_state():
    jm = power_law_couplings(3, JMAX, 1.0)
    h = build_full_ising(jm, B_FIELD)
    psi = product_state((2,), 3)
    assert energy_expectation(h, psi) == pytest.approx(-B_FIELD)


def test_excitation_number_nearly_conserved_at_large_field():
    jm = power_law_couplings(5, JMAX, 0.55)
    times = default_time_grid(JMAX)
    strong = evolve(build_full_ising(jm, B_FIELD),
                    ExcitationPattern(5, (1,)), times)
    weak = evolve(build_full_ising(jm, 0.1 * JMAX),
                  ExcitationPattern(5, (1,)), times)
    assert excitation_drift(strong) < 0.05
    assert excitation_drift(weak) > 0.3
    none = evolve(build_xy_sector(jm, B_FIELD, 1),
                  ExcitationPattern(5, (1,)), times)
    assert excitation_drift(none) < 1e-12


def test_default_time_grid():
    grid = default_time_grid(JMAX, horizon=25.0, n_times=60)
    assert grid.size == 60
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(25.0 / JMAX)
    with pytest.raises(ValueError):
        default_time_grid(0.0)
    with pytest.raises(ValueError):
        default_time_grid(JMAX, n_times=1)
