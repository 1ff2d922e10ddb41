import numpy as np
import pytest

from ionquench.cli import main
from ionquench.config import load_config
from ionquench.exact import (build_full_ising, build_xy_sector,
                             default_time_grid, evolve_draws, level_gaps)
from ionquench.iocsv import write_csv
from ionquench.observables import assemble_trace
from ionquench.stochastic import noise_scales


def run_cli(tmp_path, command, text):
    """The output directory of one CLI run on the config text, and the
    loaded config."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out, load_config(cfg)


def same_bytes(tmp_path, written, header, columns):
    """Whether the written file holds the bytes write_csv gives for the
    header and explicit one-row-per-value columns."""
    oracle = tmp_path / "oracle.csv"
    write_csv(oracle, header, columns)
    return written.read_bytes() == oracle.read_bytes()


def test_csv_values_are_shortest_round_trip_reprs(tmp_path):
    write_csv(tmp_path / "f.csv", ("a", "b"),
              (np.array([-0.0, 5e-324, 0.1 + 0.2, 1e22]), np.arange(4)))
    assert (tmp_path / "f.csv").read_bytes() == (
        b"# a,b\n-0.0,0\n5e-324,1\n0.30000000000000004,2\n1e+22,3\n")


@pytest.mark.parametrize("noise_samples", [0, 128])
def test_evolve_files_match_column_composition(tmp_path, noise_samples):
    """The trace and C files of evolve, rebuilt from the quench path's
    draw means as explicit columns; a noisy run adds n_samples last."""
    out, cfg = run_cli(tmp_path, "evolve", (
        "n_ions = 4\nmodel = exact\npatterns = 1; 2,4\nn_times = 6\n"
        f"t_max_over_jmax = 10\nnoise_samples = {noise_samples}\nseed = 3\n"))
    jm, _, _ = cfg.couplings()
    times = default_time_grid(jm.j_max, 10, 6)
    scales = (noise_scales(cfg.noise_model(), noise_samples)
              if noise_samples else [1.0])
    h = build_full_ising(jm, cfg.b_field)
    mean, _ = evolve_draws([(h, p) for p in cfg.patterns], times, scales)
    n_times, n_sites = mean.shape[1:]
    for tag, sz in zip(("p1", "p2-4"), mean):
        trace = assemble_trace(times, sz)
        header = ["t_seconds", "site", "sz"]
        columns = [np.repeat(times, n_sites),
                   np.tile(np.arange(1, n_sites + 1), n_times), sz.ravel()]
        c_header = ["t_seconds", "C", "C_cumulative"]
        c_columns = [times, trace.c_series, trace.c_cumulative]
        if noise_samples:
            header.append("n_samples")
            columns.append(np.full(n_times * n_sites, noise_samples))
            c_header.append("n_samples")
            c_columns.append(np.full(n_times, noise_samples))
        assert same_bytes(tmp_path, out / f"trace_exact_{tag}.csv",
                          header, columns)
        assert same_bytes(tmp_path, out / f"c_exact_{tag}.csv",
                          c_header, c_columns)


def test_gaps_file_matches_column_composition(tmp_path):
    """gaps.csv of exact gaps whose exponents hold different numbers of
    gaps: one block of rows per exponent, in grid order."""
    out, cfg = run_cli(tmp_path, "gaps", (
        "n_ions = 6\nmodel = exact\npatterns = 2\nalpha_grid = 0,0.55\n"))
    jms, _ = cfg.grid_couplings()
    spectra = [level_gaps(build_full_ising(jm, cfg.b_field), cfg.patterns[0])
               for jm in jms]
    gaps = [g / jm.j_max for (g, _), jm in zip(spectra, jms)]
    assert gaps[0].size != gaps[1].size
    assert same_bytes(
        tmp_path, out / "gaps.csv", ("alpha", "gap_over_jmax", "weight"),
        (np.repeat(cfg.alpha_grid, [g.size for g in gaps]),
         np.concatenate(gaps), np.concatenate([w for _, w in spectra])))


@pytest.mark.parametrize("patterns", ["3", "2,5"])
def test_xy_gaps_pair_the_xy_sector_levels(tmp_path, patterns):
    """gaps with model = xy pairs the levels of the pattern's XY sector
    (level_gaps of build_xy_sector), not the spin-wave pair gaps, which
    a one-flip pattern also has."""
    text = f"n_ions = 7\npatterns = {patterns}\nalpha_grid = 0.55,1.33\n"
    out, cfg = run_cli(tmp_path, "gaps", text + "model = xy\n")
    pattern = cfg.patterns[0]
    jms, _ = cfg.grid_couplings()
    spectra = [level_gaps(build_xy_sector(jm, cfg.b_field,
                                          pattern.n_excitations), pattern)
               for jm in jms]
    gaps = [g / jm.j_max for (g, _), jm in zip(spectra, jms)]
    assert same_bytes(
        tmp_path, out / "gaps.csv", ("alpha", "gap_over_jmax", "weight"),
        (np.repeat(cfg.alpha_grid, [g.size for g in gaps]),
         np.concatenate(gaps), np.concatenate([w for _, w in spectra])))
    if pattern.n_excitations == 1:
        spinwave = tmp_path / "spinwave"
        assert main(["gaps", "--config", str(tmp_path / "gaps.cfg"),
                     "--model", "spinwave", "--out", str(spinwave)]) == 0
        assert ((spinwave / "gaps.csv").read_bytes()
                != (out / "gaps.csv").read_bytes())


def test_j_matrix_file_matches_index_labels(tmp_path):
    out, cfg = run_cli(tmp_path, "couplings", (
        "n_ions = 5\ncoupling_source = trap\ntarget_alpha = 0.55\n"
        "scan_points = 15\n"))
    j = cfg.couplings()[0].j
    i, k = np.indices(j.shape) + 1
    assert same_bytes(tmp_path, out / "j_matrix.csv",
                      ("i", "j", "J_rad_per_s"),
                      (i.ravel(), k.ravel(), j.ravel()))


@pytest.mark.parametrize("columns", [
    (np.arange(3), np.arange(4)),
    (np.zeros((2, 3)), np.zeros(2)),
    (np.arange(2)[:, None], np.zeros(3), np.zeros((3, 3))),
])
def test_columns_that_do_not_broadcast_raise(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a",) * len(columns), columns)
    assert not (tmp_path / "bad.csv").exists()
