import tracemalloc

import numpy as np
import pytest

from helpers import (B_FIELD, JMAX, conditional_marginals, postselected,
                     whole_array_shots)
from ionquench import stochastic
from ionquench.coupling import power_law_couplings
from ionquench.errors import EmptySelectionError
from ionquench.iocsv import write_shot_lines
from ionquench.observables import ExcitationPattern
from ionquench.spinwave import build_spinwave, quench_sz
from ionquench.stochastic import (NoiseModel, ShotCounts, noise_scales,
                                  shot_blocks)

BASE_JM = power_law_couplings(5, JMAX, 0.55)
PATTERN = ExcitationPattern(5, (2,))


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(j_relative_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(prep_flip_fidelity=1.2)
    with pytest.raises(ValueError):
        NoiseModel(detection_error=-0.01)
    with pytest.raises(ValueError):
        NoiseModel(seed=-3)


def test_rng_streams_are_independent_and_reproducible():
    model = NoiseModel(seed=11)
    a = model.rng(0, 0).random(6)
    b = model.rng(1, 0).random(6)
    c = model.rng(0, 1).random(6)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, NoiseModel(seed=11).rng(0, 0).random(6))


def test_zero_sigma_scales_are_one():
    assert noise_scales(NoiseModel(j_relative_sigma=0.0, seed=4), 3) == [
        1.0, 1.0, 1.0]


def test_noise_scales_are_deterministic():
    model = NoiseModel(seed=7)
    one = noise_scales(model, 8)
    assert one == noise_scales(NoiseModel(seed=7), 8)
    assert len(one) == 8 and len(set(one)) == 8


def test_noise_scales_extend_their_prefix():
    """Draw i depends only on the seed and i, so more draws keep the
    scales of fewer."""
    model = NoiseModel(seed=13)
    many = noise_scales(model, 10)
    for k in (1, 4, 9):
        assert many[:k] == noise_scales(model, k)


def test_scale_draws_are_positive_even_at_huge_sigma():
    seen = noise_scales(NoiseModel(j_relative_sigma=5.0, seed=2), 64)
    assert len(seen) == 64
    assert min(seen) > 0.0
    assert max(seen) > 1.0  # sigma=5 certainly produced large draws


def test_average_input_validation():
    with pytest.raises(ValueError):
        noise_scales(NoiseModel(seed=0), 0)


def fixed_sz(sz):
    """Dynamics that give every pattern the marginals sz."""
    return lambda patterns: np.tile(sz, (len(patterns), 1))


def own_sz(patterns):
    """Dynamics that leave every pattern as it was prepared."""
    return np.array([pat.sz() for pat in patterns])


def gathered(pattern, run_to_sz, model, n_shots):
    """The shot_blocks stream of one preparation as one (n_shots, N)
    array, its blocks joined in shot order."""
    return np.concatenate(list(shot_blocks(pattern, run_to_sz, model,
                                           n_shots)))


def shots_of(sz, n_shots, **noise):
    """Shots of fixed site marginals: preparation never fails and the
    dynamics return sz whatever the pattern."""
    sz = np.asarray(sz, dtype=float)
    model = NoiseModel(prep_flip_fidelity=1.0, **noise)
    return gathered(ExcitationPattern(sz.size, (1,)), fixed_sz(sz), model,
                    n_shots)


def test_prep_errors_limits():
    pattern = ExcitationPattern(7, (2, 4))
    keep = NoiseModel(prep_flip_fidelity=1.0, detection_error=0.0)
    drop = NoiseModel(prep_flip_fidelity=0.0, detection_error=0.0)
    run = own_sz
    assert np.array_equal(gathered(pattern, run, keep, 50),
                          np.tile(pattern.occupations(), (50, 1)))
    assert not gathered(pattern, run, drop, 50).any()


def test_prep_errors_statistics():
    model = NoiseModel(prep_flip_fidelity=0.85, detection_error=0.0)
    pattern = ExcitationPattern(7, (2, 4))
    # the dynamics return the kept pattern itself, so the bits show
    # which flips succeeded
    shots = gathered(pattern, own_sz, model, 20000)
    assert not shots[:, [0, 2, 4, 5, 6]].any()
    kept2 = shots[:, 1].mean()
    kept4 = shots[:, 3].mean()
    both = (shots[:, 1] & shots[:, 3]).mean()
    tol = 4.0 * np.sqrt(0.85 * 0.15 / 20000)
    assert abs(kept2 - 0.85) < tol
    assert abs(kept4 - 0.85) < tol
    assert abs(both - 0.85**2) < 4.0 * np.sqrt(0.7225 * 0.2775 / 20000)


def test_shots_deterministic_bits():
    shots = shots_of([1.0, -1.0, -1.0], 200, detection_error=0.0, seed=9)
    assert shots.dtype == np.uint8
    assert np.array_equal(shots, np.tile([1, 0, 0], (200, 1)))


def test_shots_reproducible_and_seed_dependent():
    sz = np.full(4, 0.2)
    a = shots_of(sz, 50, seed=3)
    b = shots_of(sz, 50, seed=3)
    c = shots_of(sz, 50, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_detection_error_rate():
    shots = shots_of([1.0], 100000, detection_error=0.05, seed=5)
    rate = shots[:, 0].mean()
    assert abs(rate - 0.95) < 4.0 * np.sqrt(0.95 * 0.05 / 100000)


def test_shot_input_validation():
    for bad in (1.5, -1.5, 1.0 + 3e-9, np.nan, np.inf):
        with pytest.raises(ValueError):
            shots_of([0.0, bad], 10)
    with pytest.raises(ValueError):
        shots_of([0.0], 0)
    # rounding within the 1e-9 slack reads out as certain
    assert shots_of([1.0 + 1e-10, -1.0 - 1e-10], 10,
                    detection_error=0.0).tolist() == [[1, 0]] * 10


def test_shots_match_per_shot_scalar_oracle():
    """The batched draws equal a loop of scalar draws, shot by shot and
    site by site, on stream 1 (preparation), 2 (outcome) and 3
    (detection)."""
    model = NoiseModel(prep_flip_fidelity=0.8, detection_error=0.1, seed=17)
    pattern = ExcitationPattern(5, (1, 3, 4))

    def run(patterns):
        return np.array([0.7 * pat.sz()
                         + 0.2 * np.sin(np.arange(5.0) + sum(pat.flipped))
                         for pat in patterns])

    shots = gathered(pattern, run, model, 400)
    prep, outcome, detect = model.rng(1), model.rng(2), model.rng(3)
    kept = [tuple(s for s in pattern.flipped if prep.random() < 0.8)
            for _ in range(400)]
    oracle = np.zeros((400, 5), dtype=np.uint8)
    for row, key in enumerate(kept):
        sz = run([ExcitationPattern(5, key)])[0] if key else np.full(5, -1.0)
        for site in range(5):
            oracle[row, site] = outcome.random() < (sz[site] + 1.0) / 2.0
        for site in range(5):
            if detect.random() < 0.1:
                oracle[row, site] ^= 1
    assert len(set(kept)) > 4
    assert np.array_equal(shots, oracle)


def logged_dynamics(n_ions):
    """Distinct marginals per pattern, and the list of calls, each the
    tuple of the patterns it ran."""
    calls = []

    def run(patterns):
        calls.append(tuple(pat.flipped for pat in patterns))
        return np.array([0.9 * np.cos(np.arange(n_ions)
                                      + 3.0 * sum(pat.flipped))
                         for pat in patterns])
    return run, calls


BLOCK = stochastic._READOUT_CHUNK // 13


@pytest.mark.parametrize("n_shots", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     3 * BLOCK + 7])
@pytest.mark.parametrize("flipped", [(), (5,), (2, 7, 13)])
@pytest.mark.parametrize("detection_error", [0.0, 0.05])
def test_streamed_readout_equals_whole_array_draws(n_shots, flipped,
                                                   detection_error):
    """Readout blocks of any remainder and integer-coded preparation rows
    change no bit, and run the dynamics for the same patterns in the
    same order, as whole-array draws and np.unique(axis=0)."""
    pattern = ExcitationPattern(13, flipped)
    model = NoiseModel(prep_flip_fidelity=0.6,
                       detection_error=detection_error, seed=31)
    run, calls = logged_dynamics(13)
    ref_run, ref_calls = logged_dynamics(13)
    shots = gathered(pattern, run, model, n_shots)
    oracle = whole_array_shots(pattern, ref_run, model, n_shots)
    assert shots.dtype == oracle.dtype and shots.shape == oracle.shape
    assert np.array_equal(shots, oracle)
    assert calls == ref_calls


def test_wide_preparations_stream_as_whole_array_draws():
    """70 intended flips, more than one int64 code holds, key their
    preparations by records across readout blocks and change no bit."""
    pattern = ExcitationPattern(80, tuple(range(1, 71)))
    model = NoiseModel(prep_flip_fidelity=0.97, detection_error=0.05, seed=3)
    run, calls = logged_dynamics(80)
    ref_run, ref_calls = logged_dynamics(80)
    shots = gathered(pattern, run, model, 900)
    assert np.array_equal(shots, whole_array_shots(pattern, ref_run, model,
                                                   900))
    assert calls == ref_calls and len(calls[0]) > 100


@pytest.mark.parametrize("width", [0, 1, 5, 52, 53, 63, 64, 70, 130])
def test_distinct_rows_equal_unique_rows(width):
    """Rows wider than one int64 code (63 columns), streamed in blocks
    that share rows, sort and invert as np.unique(axis=0) does."""
    rng = np.random.default_rng(width)
    base = rng.random((40, width)) < 0.5
    base[1:4, :width // 2] = base[0, :width // 2]
    kept = base[rng.integers(0, 40, 1000)]
    rows, codes = stochastic._distinct_rows(np.array_split(kept, 3))
    ref_rows, ref_which = np.unique(kept, axis=0, return_inverse=True)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(np.searchsorted(codes, stochastic._row_codes(kept)),
                          ref_which.reshape(-1))


def test_readout_and_writer_stay_near_the_bit_array(tmp_path):
    """Peak traced memory of 50 000 shots of 100 sites, streamed from
    shot_blocks through ShotCounts.tally into write_shot_lines, stays
    under three (n_shots, N) bit arrays: the draws stream through fixed
    blocks and the writer makes no bytes copy (whole-array draws peaked
    above 17)."""
    pattern = ExcitationPattern(100, (3, 50, 99))
    sz = 0.9 * np.cos(np.arange(100.0))
    bit_array = 50000 * 100   # bytes of the (n_shots, N) uint8 array
    counts = ShotCounts(3)
    tracemalloc.start()
    try:
        blocks = shot_blocks(pattern, fixed_sz(sz), NoiseModel(seed=4), 50000)
        write_shot_lines(tmp_path / "shots.txt", counts.tally(blocks))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.n_shots == 50000
    assert (tmp_path / "shots.txt").stat().st_size == 50000 * 101
    assert peak < 3 * bit_array


def test_postselect_partitions_and_errors():
    shots = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]],
                     dtype=np.uint8)
    res = postselected([shots], 1)
    assert res.n_accepted == 2
    assert res.acceptance_fraction == 0.5
    assert res.p_up == pytest.approx([0.5, 0.0, 0.5])
    assert res.sz == pytest.approx(2.0 * res.p_up - 1.0)
    assert res.sz_err == pytest.approx(2.0 * res.p_err)

    # blocks of any split count the same shots
    split = postselected(np.array_split(shots, 3), 1)
    assert split.n_accepted == 2 and np.array_equal(split.p_up, res.p_up)

    with pytest.raises(EmptySelectionError) as info:
        postselected([shots], 3)
    assert info.value.acceptance_fraction == 0.0
    with pytest.raises(ValueError):
        postselected([np.empty((0, 3), dtype=np.uint8)], 1)
    with pytest.raises(ValueError):
        postselected([], 1)


def test_postselect_leaves_shots_unchanged():
    """tally passes each block on as it was, counted, to the writer."""
    shots = shots_of(np.full(6, -0.6), 500, seed=8)
    blocks = np.array_split(shots, 4)
    before = [bits.copy() for bits in blocks]
    counts = ShotCounts(1)
    passed = list(counts.tally(iter(blocks)))
    res = counts.result()
    assert 0 < res.n_accepted < 500
    assert all(a is b for a, b in zip(passed, blocks)) and len(passed) == 4
    assert all(bits.dtype == np.uint8 for bits in blocks)
    assert all(np.array_equal(a, b) for a, b in zip(blocks, before))


def test_postselect_counts_without_a_float_copy():
    """With every shot accepted, the estimates are integer column counts
    over the accepted count: the floats of a float64 mean, at a peak
    below twice the bits (a float64 copy peaked at nine times)."""
    rng = np.random.default_rng(5)
    shots = np.zeros((50000, 100), dtype=np.uint8)
    up = np.argpartition(rng.random(shots.shape), 3, axis=1)[:, :3]
    np.put_along_axis(shots, up, 1, axis=1)
    tracemalloc.start()
    try:
        res = postselected([shots], 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.n_accepted == 50000
    assert np.array_equal(res.p_up, shots.astype(float).mean(axis=0))
    assert peak < 2 * shots.nbytes


def test_postselection_matches_conditional_law():
    """Sector filtering must reproduce the exact conditional marginals
    of independent site outcomes given the total count."""
    sys = build_spinwave(BASE_JM, B_FIELD)
    sz = quench_sz(sys, [PATTERN], np.array([8.0 / JMAX]))[0, 0]
    p = (sz + 1.0) / 2.0
    model = NoiseModel(prep_flip_fidelity=1.0, detection_error=0.0, seed=21)
    res = postselected(shot_blocks(PATTERN, fixed_sz(sz), model, 40000), 1)
    truth = conditional_marginals(p, 1)
    err = np.maximum(res.p_err, 1e-4)
    assert np.all(np.abs(res.p_up - truth) < 4.0 * err)


def test_pipeline_deterministic():
    model = NoiseModel(seed=13)

    def run(patterns):
        sys = build_spinwave(BASE_JM, B_FIELD)
        return np.array([quench_sz(sys, [pat], np.array([8.0 / JMAX]))[0, 0]
                         for pat in patterns])

    a = gathered(PATTERN, run, model, 300)
    b = gathered(PATTERN, run, model, 300)
    assert a.shape == (300, 5)
    assert np.array_equal(a, b)


def test_pipeline_caches_dynamics_per_pattern():
    model = NoiseModel(prep_flip_fidelity=0.5, detection_error=0.0, seed=1)
    calls = []

    def run(patterns):
        calls.extend(pat.flipped for pat in patterns)
        return np.tile(PATTERN.sz(), (len(patterns), 1))

    shot_blocks(PATTERN, run, model, 100)
    # empty corruptions short-circuit, successful ones run once
    assert calls == [(2,)]


def test_pipeline_empty_pattern_short_circuit():
    model = NoiseModel(prep_flip_fidelity=0.0, detection_error=0.0, seed=6)

    def run(patterns):
        raise AssertionError("dynamics must not run for the empty pattern")

    shots = gathered(PATTERN, run, model, 40)
    assert shots.shape == (40, 5)
    assert not shots.any()



@pytest.mark.parametrize("shape", [(0, 5), (2, 5), (4, 5), (5,), (3, 4)])
def test_pipeline_rejects_sz_of_the_wrong_shape(shape):
    """The kept subsets of sites (1, 2) are (1,), (2,) and (1, 2), so the
    dynamics must return three rows of 5 sites: any other shape raises,
    one (N,) row for all of them included, instead of broadcasting."""
    model = NoiseModel(prep_flip_fidelity=0.5, detection_error=0.0, seed=1)
    with pytest.raises(ValueError, match="for 3 patterns"):
        shot_blocks(ExcitationPattern(5, (1, 2)),
                    lambda patterns: np.zeros(shape), model, 200)
