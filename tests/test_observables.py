import numpy as np
import pytest

from helpers import excitation_number, mirrored, observable_c, pattern_sz
from ionquench.observables import ExcitationPattern, assemble_trace


def test_pattern_sorted_unique_in_range():
    p = ExcitationPattern(7, (4, 2))
    assert p.flipped == (2, 4)
    assert p.n_excitations == 2
    with pytest.raises(ValueError):
        ExcitationPattern(7, (3, 3))
    with pytest.raises(ValueError):
        ExcitationPattern(7, (0,))
    with pytest.raises(ValueError):
        ExcitationPattern(7, (8,))


def test_pattern_vectors():
    p = ExcitationPattern(5, (1, 4))
    assert np.array_equal(p.occupations(), [1, 0, 0, 1, 0])
    assert np.array_equal(pattern_sz(p), [1, -1, -1, 1, -1])
    assert ExcitationPattern(5, ()).occupations().sum() == 0


def test_pattern_mirror():
    p = ExcitationPattern(7, (2, 4))
    assert mirrored(p).flipped == (4, 6)
    assert mirrored(mirrored(p)) == p
    # odd chain center is its own mirror image
    assert mirrored(ExcitationPattern(7, (4,))).flipped == (4,)


def test_observable_c_edges_and_center():
    # single excitation at the edges maps to -1 and +1 exactly
    for site, c in ((1, -1.0), (7, +1.0), (4, 0.0)):
        sz = pattern_sz(ExcitationPattern(7, (site,)))
        assert observable_c(sz) == pytest.approx(c)
    # all spins down carries no excitation anywhere
    assert observable_c(-np.ones(7)) == pytest.approx(0.0)


def test_observable_c_is_odd_under_mirror():
    rng = np.random.default_rng(3)
    sz = rng.uniform(-1.0, 1.0, size=9)
    assert observable_c(sz[::-1]) == pytest.approx(-observable_c(sz))


def test_observable_c_needs_two_sites():
    with pytest.raises(ValueError):
        observable_c(np.array([0.3]))


def test_assemble_trace_running_mean_and_count():
    times = np.array([0.0, 1.0, 2.0])
    sz = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
    tr = assemble_trace(times, sz)
    assert tr.c_series == pytest.approx([-1.0, 1.0, -1.0])
    assert tr.c_cumulative == pytest.approx([-1.0, 0.0, -1.0 / 3.0])
    assert excitation_number(tr) == pytest.approx([1.0, 1.0, 1.0])
    assert tr.sz.shape == (3, 2)
    with pytest.raises(ValueError):
        assemble_trace(times, sz[:2])


def test_trace_arrays_are_frozen():
    tr = assemble_trace(np.array([0.0]), np.array([[0.5, -0.5]]))
    with pytest.raises(ValueError):
        tr.sz[0, 0] = 2.0
