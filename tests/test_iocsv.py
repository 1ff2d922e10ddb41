import numpy as np
import pytest

from ionquench.iocsv import (write_csv, write_gaps_csv, write_matrix_csv,
                             write_trace_csv)
from ionquench.observables import assemble_trace


@pytest.mark.parametrize("n_samples", [None, 128])
def test_trace_writer_matches_column_composition(tmp_path, n_samples):
    times = np.array([0.0, 1e-05, 0.1 + 0.2, 1.0 / 3.0, 12345.678])
    rng = np.random.default_rng(3)
    sz = rng.uniform(-1.0, 1.0, (times.size, 4))
    sz[0] = [-1.0, -0.0, 0.0, 1.0]
    sz[1] = [5e-324, -1e-300, 0.5, -2.220446049250313e-16]
    trace = assemble_trace(times, sz)
    n_times, n_sites = sz.shape

    header = ["t_seconds", "site", "sz"]
    cols = [np.repeat(times, n_sites),
            np.tile(np.arange(1, n_sites + 1), n_times), sz.ravel()]
    if n_samples is not None:
        header.append("n_samples")
        cols.append(np.full(n_times * n_sites, n_samples))
    write_csv(tmp_path / "columns.csv", header, cols)
    write_trace_csv(tmp_path / "trace.csv", trace, n_samples)

    expected = (tmp_path / "columns.csv").read_bytes()
    assert (tmp_path / "trace.csv").read_bytes() == expected
    assert b"\n0.0,2,-0.0" in expected and b"\r" not in expected


def test_gaps_writer_matches_column_composition(tmp_path):
    rng = np.random.default_rng(5)
    blocks = [(0.55, rng.uniform(0.0, 40.0, 6), rng.uniform(0.0, 1.0, 6)),
              (0.1 + 0.2, np.array([]), np.array([])),
              (1.33, np.array([0.0, 5e-324, 1.0 / 3.0]),
               np.array([1.0, -0.0, 2.220446049250313e-16]))]
    cols = [np.concatenate([np.full(g.size, a) for a, g, _ in blocks]),
            np.concatenate([g for _, g, _ in blocks]),
            np.concatenate([w for _, _, w in blocks])]
    header = ("alpha", "gap_over_jmax", "weight")
    write_csv(tmp_path / "columns.csv", header, cols)
    write_gaps_csv(tmp_path / "gaps.csv", blocks)
    assert ((tmp_path / "gaps.csv").read_bytes()
            == (tmp_path / "columns.csv").read_bytes())


def test_matrix_writer_matches_index_labels(tmp_path):
    rng = np.random.default_rng(7)
    j = rng.normal(size=(5, 5))
    j[0, :3] = [-0.0, 5e-324, 0.1 + 0.2]
    i, k = np.indices(j.shape) + 1
    write_csv(tmp_path / "columns.csv", ("i", "j", "J_rad_per_s"),
              (i.ravel(), k.ravel(), j.ravel()))
    write_matrix_csv(tmp_path / "j_matrix.csv", j)
    assert ((tmp_path / "j_matrix.csv").read_bytes()
            == (tmp_path / "columns.csv").read_bytes())


@pytest.mark.parametrize("columns", [
    (np.arange(3), np.arange(4)),
    (np.zeros((2, 3)), np.zeros(2)),
    (np.arange(2)[:, None], np.zeros(3), np.zeros((3, 3))),
])
def test_columns_that_do_not_broadcast_raise(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a",) * len(columns), columns)
    assert not (tmp_path / "bad.csv").exists()
