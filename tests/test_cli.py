import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import postselected, whole_array_shots
from ionquench import __version__, stochastic
from ionquench.cli import main
from ionquench.config import load_config
from ionquench.coupling import (detuning_scan, fit_alpha, ion_couplings,
                                power_law_couplings, tune_mu_for_alpha)
from ionquench.errors import ConfigError
from ionquench.iocsv import write_csv, write_shot_lines
from ionquench.spinwave import build_spinwave, quench_sz
from ionquench.stochastic import noise_scales

BASE = """
n_ions = 4
model = spinwave
alpha = 0.55
n_times = 6
t_max_over_jmax = 10
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_outputs(outdir):
    return {p.name: p.read_bytes() for p in outdir.iterdir()}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the command the README names for each shipped config
SHIPPED = {
    "memory_longrange.cfg": "evolve",
    "relaxation_shortrange.cfg": "evolve",
    "chain22.cfg": "evolve",
    "gap_scan.cfg": "gaps",
    "double_well_n100.cfg": "couplings",
    "shots_demo.cfg": "shots",
}


class TestConfigParsing:
    def test_defaults_and_units(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.n_ions == 4
        assert cfg.model == "spinwave"
        assert cfg.raw["j_max_khz"] == 0.6
        assert cfg.b_field == pytest.approx(2 * math.pi * 1e4)
        assert cfg.raw["seed"] == 0

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# a comment\n\nn_ions = 3\n  # indented comment\nseed = 9\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.raw["seed"] == 9

    def test_pattern_list(self, tmp_path):
        cfg = load_config(write_config(tmp_path,
                                       "n_ions = 7\npatterns = 1; 2,4\n"))
        assert [p.flipped for p in cfg.patterns] == [(1,), (2, 4)]

    @pytest.mark.parametrize("text,fragment", [
        ("n_ions = 4\nwavelength = 3\n", "unknown key (line 2)"),
        ("n_ions = 4\nseed = 1\nseed = 2\n", "duplicate key (line 3)"),
        ("n_ions 4\n", "expected key = value"),
        ("model = exact\n", "n_ions: required key missing"),
        ("n_ions = four\n", "cannot parse 'four' as int"),
        ("n_ions = 4\npatterns = 0\n", "patterns"),
        ("n_ions = 4\npatterns = 9\n", "patterns"),
        ("n_ions = 4\npatterns = ;\n", "no pattern given"),
        ("n_ions = 4\nb_khz = -3\n", "b_khz"),
        ("n_ions = 4\nmodel = magic\n", "model"),
        ("n_ions = 4\nthreads = 0\n", "threads"),
        ("n_ions = 4\nn_times = 1\n", "n_times"),
        ("n_ions = 4\nprep_fidelity = 1.5\n", "prep_fidelity"),
        ("n_ions = 4\ncoupling_source = trap\nomega_x_khz = -1\n",
         "omega_x_khz"),
        ("n_ions = 4\ncoupling_source = trap\n", "mu_khz"),
        ("n_ions = 4\ncoupling_source = trap\nmu_khz = 4900\n"
         "omega_z_khz = -5\n", "omega_z_khz: must be non-negative; 0 derives"),
        ("n_ions = 4\ncoupling_source = trap\ntarget_alpha = 0.8\n"
         "mu_khz = -5\n", "mu_khz: must be non-negative; 0 tunes"),
        ("n_ions = 4\ncoupling_source = trap\nmu_khz = 4900\n"
         "j_max_khz = -1\n", "j_max_khz: must be non-negative; 0 keeps"),
        ("n_ions = 4\ncoupling_source = trap\ntarget_alpha = 5\n",
         "target_alpha"),
        ("n_ions = 4\nalpha_grid = a,b\n", "alpha_grid"),
        ("n_ions = 4\ncoupling_source = trap\nmu_khz = 4900\n"
         "alpha_grid = 0,1.33\n", "alpha_grid: trap tuning targets"),
        ("n_ions = 4\ncoupling_source = trap\nmu_khz = 4900\n"
         "alpha_grid = 3.5\n", "alpha_grid: trap tuning targets"),
        ("n_ions = 1\n", "n_ions"),
    ])
    def test_rejects_bad_config(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            load_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_config_error_is_2(self, tmp_path):
        cfg = write_config(tmp_path, "n_ions = 4\nbogus = 1\n")
        assert main(["evolve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("line", ["b_khz = nan", "t_max_over_jmax = nan",
                                      "j_max_khz = inf"])
    def test_non_finite_value_is_2(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"n_ions = 4\nn_times = 6\n{line}\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        key = line.split()[0]
        assert f"{key}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gaps", "evolve"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_grid_is_2(self, tmp_path, capsys, command,
                                        value):
        cfg = write_config(tmp_path, BASE + f"alpha_grid = 0.5,{value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "alpha_grid: values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "gge"])
    @pytest.mark.parametrize("spec, repeated", [("1; 1", "(1,)"),
                                                ("1,2; 2,1", "(1, 2)")])
    def test_repeated_pattern_is_2(self, tmp_path, capsys, command, spec,
                                   repeated):
        """A pattern given twice, in any site order, would write each of
        its files twice."""
        cfg = write_config(tmp_path, BASE + f"patterns = {spec}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"repeats pattern {repeated}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [BASE, "n_ions = 5\ncoupling_source = "
                                        "trap\nmu_khz = 4900\n"],
                             ids=["power_law", "trap"])
    @pytest.mark.parametrize("grid", ["0.55,0.55", "0.55,0.550"])
    def test_repeated_alpha_grid_value_is_2(self, tmp_path, capsys, source,
                                            grid):
        """An exponent given twice would write its block of gaps.csv
        twice under one manifest key."""
        cfg = write_config(tmp_path, source + f"alpha_grid = {grid}\n")
        out = tmp_path / "out"
        assert main(["gaps", "--config", cfg, "--out", str(out)]) == 2
        repeated = grid.split(",")[1]
        assert (f"alpha_grid: {repeated!r} repeats exponent 0.55"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_seed_and_threads_are_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        out = str(tmp_path / "out")
        for seed in ("-1", str(2**64)):
            assert main(["evolve", "--config", cfg, "--out", out,
                         "--seed", seed]) == 2
            assert capsys.readouterr().err == (
                "config error: seed: must fit in an unsigned 64-bit "
                "integer\n")
        # threads is gone: the flag is unknown to argparse, the key to
        # the config parser
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--config", cfg, "--out", out, "--threads", "1"])
        assert exc.value.code == 2
        cfg = write_config(tmp_path, BASE + "threads = 1\n", "threads.cfg")
        assert main(["evolve", "--config", cfg, "--out", out]) == 2

    def test_resonant_beam_is_3(self, tmp_path):
        text = ("n_ions = 4\ncoupling_source = trap\nmu_khz = 4800\n"
                "omega_x_khz = 4800\n")
        cfg = write_config(tmp_path, text)
        assert main(["couplings", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3

    def test_gaps_ignores_a_resonant_mu_it_replaces(self, tmp_path):
        """gaps tunes mu to every exponent, so the configured mu is never
        used."""
        gaps = []
        for mu in ("4800", "4900"):
            text = (f"n_ions = 4\ncoupling_source = trap\nmu_khz = {mu}\n"
                    "omega_x_khz = 4800\nmodel = spinwave\nscan_points = 15\n")
            out = tmp_path / mu
            assert main(["gaps", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 0
            gaps.append((out / "gaps.csv").read_bytes())
        assert gaps[0] == gaps[1]

    def test_multi_excitation_gap_request_is_2(self, tmp_path, capsys):
        """Spin-wave pair gaps need one flip: a pattern of two is a
        configuration error that names patterns, and writes no file."""
        for n_ions in (4, 7):
            text = BASE.replace("n_ions = 4", f"n_ions = {n_ions}")
            cfg = write_config(tmp_path, text + "patterns = 2,4\n")
            out = tmp_path / str(n_ions)
            assert main(["gaps", "--config", cfg, "--out", str(out)]) == 2
            assert "config error: patterns:" in capsys.readouterr().err
            assert not list(out.iterdir())

    def test_oversized_exact_chain_is_3(self, tmp_path, capsys,
                                        monkeypatch):
        """The size rule refuses 22 spins for their tables and 20 spins
        for their expansion to 25/J_max over 60 times, before any block
        state is enumerated."""
        def refuse(*args):
            raise AssertionError("block states enumerated")

        monkeypatch.setattr("ionquench.exact._bits", refuse)
        for text, states in (("n_ions = 22\nn_times = 2\n", 2**21),
                             ("n_ions = 20\n", 2**19)):
            out = tmp_path / str(states)
            assert main(["evolve", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 3
            assert (f"parity sector of {states} states"
                    in capsys.readouterr().err)
            assert not list(out.iterdir())

    def test_oversized_xy_sector_is_3(self, tmp_path, capsys):
        """C(40, 20) states are refused before any is enumerated."""
        flips = ",".join(str(i) for i in range(1, 21))
        text = f"n_ions = 40\nmodel = xy\npatterns = {flips}\nn_times = 2\n"
        out = tmp_path / "out"
        assert main(["evolve", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 3
        assert "XY sector of 137846528820 states" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [["evolve"], ["gaps"], ["shots"],
                                      ["evolve", "--model", "exact"]])
    def test_overflowing_spin_wave_energies_are_3(self, tmp_path, capsys,
                                                  argv):
        """A field whose spin-wave energies overflow exits 3 before any
        file is written, instead of writing NaN rows with exit 0; exact
        evolve needs the spin waves for its GGE file."""
        text = ("n_ions = 5\npatterns = 2\nn_times = 3\nmodel = spinwave\n"
                "b_khz = 1e200\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 3
        assert "rad/s overflows an energy" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_unstable_spin_wave_draw_is_3(self, tmp_path, capsys):
        """At alpha = 0, nu_min = -J_max, so B = 1.02 J_max is stable for
        J but not for a draw s > 1.02: the noisy run exits 3 and writes
        no trace, while the noise-free run of the same chain succeeds."""
        text = ("n_ions = 4\nmodel = spinwave\nalpha = 0\nb_khz = 0.612\n"
                "patterns = 1\nn_times = 3\nseed = 5\n")
        assert main(["evolve", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "free")]) == 0
        noisy = write_config(tmp_path, text + "noise_samples = 16\n",
                             "noisy.cfg")
        assert max(noise_scales(load_config(noisy).noise_model(), 16)) > 1.02
        out = tmp_path / "noisy"
        assert main(["evolve", "--config", noisy, "--out", str(out)]) == 3
        assert "boson model unstable" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("where", ["file", "file/sub"])
    def test_out_that_cannot_be_created_is_2(self, tmp_path, capsys, where):
        (tmp_path / "file").write_text("")
        assert main(["couplings", "--config", write_config(tmp_path, BASE),
                     "--out", str(tmp_path / where)]) == 2
        assert (f"config error: out: cannot create {tmp_path / where}"
                in capsys.readouterr().err)

    def test_output_file_that_cannot_be_opened_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "j_matrix.csv").mkdir(parents=True)
        assert main(["couplings", "--config", write_config(tmp_path, BASE),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: out: cannot create {out / 'j_matrix.csv'}: "
            "Is a directory\n")

    @pytest.mark.parametrize("command", ["couplings", "evolve", "gaps"])
    def test_detuning_scan_without_a_valid_point_is_2(self, tmp_path, capsys,
                                                      command):
        text = ("n_ions = 7\ncoupling_source = trap\ntarget_alpha = 0.55\n"
                "scan_detuning_min = 1e-9\nscan_detuning_max = 2e-9\n")
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: scan_detuning_min/_max: no detuning in range "
            "produced a valid power-law fit\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command, line", [
        ("couplings", "target_alpha = 0.8"),
        ("gaps", "mu_khz = 4900"),
        ("sweep-alpha", "mu_khz = 4900"),
    ])
    def test_tuning_two_ions_is_2(self, tmp_path, capsys, command, line):
        """No power-law fit exists below 3 ions, so neither tuning nor a
        detuning scan runs, and no file is written."""
        text = f"n_ions = 2\ncoupling_source = trap\n{line}\nmodel = xy\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "n_ions: tuning mu" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_sweep_alpha_on_power_law_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep-alpha", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error: coupling_source:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestArtifacts:
    def test_evolve_outputs_and_format(self, tmp_path):
        text = BASE + "patterns = 1; 2,4\nnoise_samples = 2\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["version"] == __version__
        assert manifest["config"]["n_ions"] == 4
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert "trace_spinwave_p1.csv" in manifest["outputs"]
        assert "c_spinwave_p2-4.csv" in manifest["outputs"]
        assert "gge_p1.csv" in manifest["outputs"]

        for path in out.glob("*.csv"):
            data = path.read_bytes()
            assert data.startswith(b"# "), path.name
            assert b"\r" not in data, path.name

        header = (out / "trace_spinwave_p1.csv").read_text().splitlines()[0]
        assert "n_samples" in header
        assert "t_seconds" in header

    def test_noiseless_trace_has_no_sample_column(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "trace_spinwave_p1.csv").read_text().splitlines()[0]
        assert "n_samples" not in header

    def test_exact_evolve_emits_diagonal_ensemble(self, tmp_path):
        text = BASE.replace("model = spinwave", "model = exact")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "diag_ensemble_p1.csv").exists()
        assert (out / "trace_exact_p1.csv").exists()

    @pytest.mark.parametrize("model, n_ions, t_max, extra, method", [
        ("exact", 4, 10, "noise_samples = 2\n", "dense"),
        ("xy", 4, 10, "", "dense"),
        ("exact", 13, 1, "", "krylov"),
        ("spinwave", 4, 10, "", None),
    ])
    def test_evolve_manifest_records_method(self, tmp_path, model, n_ions,
                                            t_max, extra, method):
        text = (BASE.replace("model = spinwave", f"model = {model}")
                .replace("n_ions = 4", f"n_ions = {n_ions}")
                .replace("t_max_over_jmax = 10", f"t_max_over_jmax = {t_max}")
                + "patterns = 1; 2,3\n" + extra)
        out = tmp_path / "out"
        assert main(["evolve", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        if method is None:
            assert "method" not in derived
        else:
            assert derived["method"] == {"p1": method, "p2-3": method}

    @pytest.mark.parametrize("model", ["exact", "xy", "spinwave"])
    def test_noisy_evolve_records_draw_diagnostics(self, tmp_path, model):
        text = (f"n_ions = 5\nmodel = {model}\npatterns = 1; 2,4\n"
                "n_times = 6\nnoise_samples = 4\nseed = 3\n")
        cfg = write_config(tmp_path, text)
        diags = []
        for name in ("a", "b"):
            assert main(["evolve", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json")
                                  .read_text())
            diags.append(manifest["diagnostics"])
        assert diags[0] == diags[1]
        scales = diags[0]["noise_scales"]
        assert len(scales) == 4 and min(scales) > 0.0
        assert scales == noise_scales(load_config(cfg).noise_model(), 4)
        if model == "spinwave":  # no state vector, so no norm to check
            assert "max_norm_error" not in diags[0]
        else:
            assert 0.0 <= diags[0]["max_norm_error"] <= 1e-8
        assert main(["evolve", "--config", write_config(
            tmp_path, text.replace("noise_samples = 4", "noise_samples = 0")),
            "--out", str(tmp_path / "free")]) == 0
        assert "diagnostics" not in json.loads(
            (tmp_path / "free" / "manifest.json").read_text())

    def test_noisy_spin_wave_evolve_runs_one_eigh(self, tmp_path,
                                                   monkeypatch):
        """Every draw scales the one system of J, so a noisy power-law
        spin-wave run diagonalizes J once, whatever its draw count."""
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: (
            calls.append(a.shape) or real(a, *args, **kw)))
        cfg = write_config(tmp_path, BASE + "patterns = 1; 2,4\n"
                           "noise_samples = 7\n")
        assert main(["evolve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == [(4, 4)]

    def test_model_override_renames_traces(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out),
                     "--model", "xy"]) == 0
        assert (out / "trace_xy_p1.csv").exists()

    def test_out_dir_from_config(self, tmp_path):
        target = tmp_path / "from_config"
        cfg = write_config(tmp_path, BASE + f"out_dir = {target}\n")
        assert main(["gge", "--config", cfg]) == 0
        assert (target / "gge_p1.csv").exists()
        assert (target / "gge_modes_p1.csv").exists()

    def test_couplings_power_law(self, tmp_path):
        cfg = write_config(tmp_path, "n_ions = 5\nalpha = 1.2\n")
        out = tmp_path / "out"
        assert main(["couplings", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["j_matrix.csv"]
        assert manifest["derived"]["alpha_fit"] == pytest.approx(1.2)
        rows = (out / "j_matrix.csv").read_text().splitlines()
        assert rows[0] == "# i,j,J_rad_per_s"
        assert len(rows) == 1 + 25
        entries = {}
        for line in rows[1:]:
            i, j, val = line.split(",")
            entries[int(i), int(j)] = float(val)
        assert entries[1, 1] == 0.0
        assert entries[1, 2] == pytest.approx(2 * math.pi * 600.0)
        assert entries[1, 3] == pytest.approx(2 * math.pi * 600.0 / 2**1.2)
        assert entries[3, 1] == entries[1, 3]

    def test_couplings_trap_extras(self, tmp_path):
        text = ("n_ions = 5\ncoupling_source = trap\ntarget_alpha = 0.55\n"
                "scan_points = 40\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["couplings", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in ("positions.csv", "mode_kappas.csv",
                     "mode_frequencies.csv", "potential.csv"):
            assert name in manifest["outputs"]
        derived = manifest["derived"]
        assert derived["barrier_height_rad_per_s"] > 0
        assert 0.4 < derived["alpha_fit"] < 0.8
        assert derived["mu_rad_per_s"] > derived["omega_z_rad_per_s"]
        assert len(derived["well_minima_sites"]) == 2

    def test_gaps_grid_summary(self, tmp_path):
        cfg = write_config(tmp_path, "n_ions = 7\nmodel = spinwave\n")
        out = tmp_path / "out"
        assert main(["gaps", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = manifest["derived"]["min_weighted_gap_over_jmax"]
        assert set(summary) == {"0.55", "1.33"}
        assert summary["0.55"] < summary["1.33"]
        assert manifest["derived"]["alpha_fit"]["0.55"] == 0.55

        lines = (out / "gaps.csv").read_text().splitlines()
        assert lines[0] == "# alpha,gap_over_jmax,weight"
        alphas = set()
        for line in lines[1:]:
            a, gap, w = (float(tok) for tok in line.split(","))
            alphas.add(a)
            assert gap >= 0.0
            assert 0.0 <= w <= 1.0
        assert alphas == {0.55, 1.33}

    def test_shots_artifacts(self, tmp_path):
        text = "n_ions = 5\nmodel = xy\nn_shots = 200\npatterns = 2\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["shots", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "shots.txt").read_text().splitlines()
        assert len(lines) == 200
        assert all(len(line) == 5 and set(line) <= {"0", "1"}
                   for line in lines)
        estimates = (out / "shot_estimates.csv").read_text().splitlines()
        assert estimates[0] == "# site,p_up,p_err,sz,sz_err"
        assert len(estimates) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 < manifest["derived"]["acceptance_fraction"] <= 1.0
        assert manifest["derived"]["n_accepted"] >= 1

    @pytest.mark.parametrize("model", ["exact", "xy", "spinwave"])
    def test_shot_time_zero_reads_the_quench_instant(self, tmp_path, model):
        """shot_time_over_jmax = 0 measures at t = 0: with perfect
        preparation and detection every shot reads the pattern."""
        text = (f"n_ions = 5\nmodel = {model}\npatterns = 2,4\n"
                "n_shots = 50\nprep_fidelity = 1\ndetection_error = 0\n"
                "shot_time_over_jmax = 0\n")
        out = tmp_path / "out"
        assert main(["shots", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        assert (out / "shots.txt").read_text().splitlines() == ["01010"] * 50
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["t_shot_seconds"] == 0.0

    def test_sweep_alpha_scan(self, tmp_path):
        text = ("n_ions = 5\ncoupling_source = trap\nmu_khz = 4900\n"
                "scan_points = 15\nscan_detuning_min = 0.001\n"
                "scan_detuning_max = 0.5\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-alpha", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "alpha_scan.csv").read_text().splitlines()
        assert lines[0] == ("# mu_rad_per_s,detuning_fraction,alpha_fit,"
                            "j_max_rad_per_s")
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        assert len(rows) >= 10
        mus = [row[0] for row in rows]
        assert mus == sorted(mus)
        # farther detuning means steeper decay
        assert rows[-1][2] > rows[0][2]

    def test_gaps_scans_the_configured_detuning_grid(self, tmp_path,
                                                     monkeypatch):
        import ionquench.coupling as coupling
        scans = []
        real = coupling.detuning_scan

        def recording(cfg, modes, detuning_range, n_grid):
            scans.append((detuning_range, n_grid))
            return real(cfg, modes, detuning_range, n_grid)

        monkeypatch.setattr(coupling, "detuning_scan", recording)
        text = ("n_ions = 5\ncoupling_source = trap\nmu_khz = 4900\n"
                "model = spinwave\nalpha_grid = 0.55,1.33\n"
                "scan_points = 15\nscan_detuning_min = 0.001\n")
        cfg = write_config(tmp_path, text)
        assert main(["gaps", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert scans == [((0.001, 1.0), 15)]

    def test_gaps_with_target_alpha_scans_once(self, tmp_path, monkeypatch):
        import ionquench.coupling as coupling
        scans = []
        real = coupling.detuning_scan

        def recording(cfg, modes, detuning_range, n_grid):
            scans.append((detuning_range, n_grid))
            return real(cfg, modes, detuning_range, n_grid)

        monkeypatch.setattr(coupling, "detuning_scan", recording)
        text = ("n_ions = 5\ncoupling_source = trap\ntarget_alpha = 0.55\n"
                "model = spinwave\nalpha_grid = 0.55,1.33\n"
                "scan_points = 15\nscan_detuning_min = 0.001\n")
        cfg = write_config(tmp_path, text)
        assert main(["gaps", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert scans == [((0.001, 1.0), 15)]

    def test_gaps_tunes_each_exponent_as_a_scan_for_it_alone(
            self, tmp_path, monkeypatch):
        """The one scan of gaps gives every exponent the trap that
        tune_mu_for_alpha picks for that exponent alone, and the manifest
        records the fitted range of that scan."""
        import ionquench.config
        grid = (0.55, 0.9, 1.33)
        text = ("n_ions = 5\ncoupling_source = trap\nmu_khz = 4900\n"
                "j_max_khz = 0\nmodel = spinwave\nscan_points = 15\n"
                "scan_detuning_min = 0.001\n"
                f"alpha_grid = {','.join(map(str, grid))}\n")
        cfg = write_config(tmp_path, text)
        # mu_khz is set and j_max_khz is 0: the untuned, unscaled trap
        _, trap, modes = load_config(cfg).couplings()
        alone = [tune_mu_for_alpha(trap, modes, [alpha], n_grid=15,
                                   detuning_range=(0.001, 1.0))[0][0]
                 for alpha in grid]
        assert len({t.mu for t in alone}) == len(grid)
        built = []

        def recording(trap, modes):
            built.append(trap)
            return ion_couplings(trap, modes)

        monkeypatch.setattr(ionquench.config, "ion_couplings", recording)
        out = tmp_path / "out"
        assert main(["gaps", "--config", cfg, "--out", str(out)]) == 0
        assert built == alone
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        assert derived["alpha_fit"] == {
            str(a): fit_alpha(ion_couplings(t, modes))
            for a, t in zip(grid, alone)}
        scan = [a for *_, a in detuning_scan(trap, modes, (0.001, 1.0), 15)]
        assert derived["alpha_scan_range"] == [min(scan), max(scan)]

    def test_power_law_gaps_record_no_scan_range(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gaps", "--config", write_config(tmp_path, BASE),
                     "--out", str(out)]) == 0
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        assert "alpha_scan_range" not in derived

    def test_gaps_records_reached_exponent_per_grid_value(self, tmp_path):
        text = ("n_ions = 5\ncoupling_source = trap\nmu_khz = 4900\n"
                "model = spinwave\nalpha_grid = 0.55,0.9,1.33\n"
                "scan_points = 15\nscan_detuning_min = 0.001\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["gaps", "--config", cfg, "--out", str(out)]) == 0
        fits = json.loads((out / "manifest.json").read_text()
                          )["derived"]["alpha_fit"]
        assert list(fits) == ["0.55", "0.9", "1.33"]
        assert all(isinstance(fit, float) and fit > 0
                   for fit in fits.values())


TRAP = ("n_ions = 5\ncoupling_source = trap\nscan_points = 15\n"
        "scan_detuning_min = 0.001\n")



SHOT_BLOCK = stochastic._READOUT_CHUNK // 13   # readout rows of 13 ions


class TestShotStream:
    """The shots command streams the readout block by block into
    shots.txt and the post-selection counts."""

    @pytest.mark.parametrize("n_shots", [SHOT_BLOCK - 1, SHOT_BLOCK,
                                         SHOT_BLOCK + 1, 3 * SHOT_BLOCK + 7])
    @pytest.mark.parametrize("detection_error", [0.0, 0.05])
    def test_streamed_files_equal_the_whole_array(self, tmp_path, n_shots,
                                                  detection_error):
        """shots.txt and shot_estimates.csv equal write_shot_lines and
        ShotCounts of the independent whole-array draws, for any
        remainder of the last block."""
        text = ("n_ions = 13\nmodel = spinwave\npatterns = 2,5,9\n"
                f"prep_fidelity = 0.6\ndetection_error = {detection_error}\n"
                f"n_shots = {n_shots}\nshot_time_over_jmax = 4\n")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["shots", "--config", path, "--out", str(out)]) == 0
        cfg = load_config(path)
        jm, _, _ = cfg.couplings()
        sw = build_spinwave(jm, cfg.b_field)
        t_shot = np.array([4.0 / jm.j_max])
        shots = whole_array_shots(
            cfg.patterns[0], lambda pats: quench_sz(sw, pats, t_shot)[:, 0],
            cfg.noise_model(), n_shots)
        result = postselected([shots], 3)
        write_shot_lines(tmp_path / "shots.txt", [shots])
        write_csv(tmp_path / "shot_estimates.csv",
                  ("site", "p_up", "p_err", "sz", "sz_err"),
                  (np.arange(1, 14), result.p_up, result.p_err, result.sz,
                   result.sz_err))
        for name in ("shots.txt", "shot_estimates.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["n_accepted"] == result.n_accepted

    def test_memory_does_not_grow_with_the_shot_count(self, tmp_path):
        """The traced peak of the command on 100 ions grows by less than
        1 MB from 50 000 to 200 000 shots (whole (n_shots, N) bit and
        line arrays would add 30 MB).  A first run of 1000 shots, not
        measured, makes the one-time allocations of a process."""
        peaks = []
        for n_shots in (1000, 50_000, 200_000):
            text = ("n_ions = 100\nmodel = spinwave\npatterns = 50\n"
                    f"n_shots = {n_shots}\n")
            path = write_config(tmp_path, text, f"{n_shots}.cfg")
            out = tmp_path / str(n_shots)
            tracemalloc.start()
            try:
                assert main(["shots", "--config", path,
                             "--out", str(out)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len((out / "shots.txt").read_bytes()) == n_shots * 101
            peaks.append(peak)
        assert peaks[2] - peaks[1] < 1e6

    def test_empty_selection_leaves_no_shots_file(self, tmp_path, capsys):
        """A post-selection that keeps no shot exits 3 with its message
        and leaves the output directory empty."""
        text = ("n_ions = 7\npatterns = 2\nprep_fidelity = 0\n"
                "detection_error = 0\nn_shots = 50\n")
        out = tmp_path / "out"
        assert main(["shots", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 3
        assert ("post-selection on 1 excitations rejected all 50 shots"
                in capsys.readouterr().err)
        assert not list(out.iterdir())

class TestCouplingPipeline:
    @pytest.mark.parametrize("j_max", ["0", "0.6"])
    @pytest.mark.parametrize("alpha", [0.55, 1.33])
    def test_trap_exponent_tunes_like_target_alpha(self, tmp_path, j_max,
                                                   alpha):
        extra = f"j_max_khz = {j_max}\n"
        given = load_config(write_config(
            tmp_path, TRAP + extra + f"mu_khz = 4900\nalpha_grid = {alpha}\n",
            "given.cfg"))
        target = load_config(write_config(
            tmp_path, TRAP + extra + f"target_alpha = {alpha}\n",
            "target.cfg"))
        assert np.array_equal(given.grid_couplings()[0][0].j,
                              target.couplings()[0].j)

    @pytest.mark.parametrize("alpha", [0.0, 0.55, 3.0])
    def test_power_law_exponent_replaces_alpha(self, tmp_path, alpha):
        cfg = load_config(write_config(
            tmp_path, f"n_ions = 6\nalpha = 0.9\nalpha_grid = {alpha}\n"))
        expect = power_law_couplings(6, 2 * math.pi * 1e3 * 0.6, alpha)
        assert np.array_equal(cfg.grid_couplings()[0][0].j, expect.j)

    @pytest.fixture
    def mode_solves(self, monkeypatch):
        import ionquench.config
        import ionquench.lattice
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return ionquench.lattice.exact_modes(cfg)

        monkeypatch.setattr(ionquench.config, "exact_modes", counting)
        return calls

    def test_coupling_layer_takes_modes_from_its_caller(self):
        import ionquench.coupling
        assert "exact_modes" not in vars(ionquench.coupling)

    def test_tuned_couplings_solve_modes_once(self, tmp_path, mode_solves):
        """One solve serves the detuning scan and the tuned trap."""
        text = TRAP + "target_alpha = 0.55\n"
        load_config(write_config(tmp_path, text)).couplings()
        assert len(mode_solves) == 1

    def test_gaps_solve_modes_once(self, tmp_path, mode_solves):
        """One solve serves the one scan and every exponent's build."""
        text = TRAP + "target_alpha = 0.55\nmodel = spinwave\n"
        assert main(["gaps", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(mode_solves) == 1

    def test_sweep_alpha_scans_the_modes_of_the_build(self, tmp_path,
                                                      mode_solves):
        text = TRAP + "target_alpha = 0.55\n"
        assert main(["sweep-alpha", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(mode_solves) == 1


class TestReproducibility:
    def test_evolve_reruns_byte_identical(self, tmp_path):
        text = BASE + "noise_samples = 3\nseed = 42\n"
        cfg = write_config(tmp_path, text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(out2)]) == 0
        first, second = read_outputs(out1), read_outputs(out2)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_shots_rerun_byte_identical_and_seed_sensitive(self, tmp_path):
        text = "n_ions = 4\nmodel = xy\nn_shots = 150\n"
        cfg = write_config(tmp_path, text)
        outs = [tmp_path / n for n in ("a", "b", "c")]
        for out, seed in zip(outs, ("7", "7", "8")):
            assert main(["shots", "--config", cfg, "--out", str(out),
                         "--seed", seed]) == 0
        a, b, c = (read_outputs(o) for o in outs)
        assert a == b
        assert a["shots.txt"] != c["shots.txt"]


class TestShippedConfigs:
    def test_every_config_has_a_command(self):
        assert {p.name for p in CONFIGS.glob("*.cfg")} == set(SHIPPED)

    @pytest.mark.parametrize("name,command", sorted(SHIPPED.items()))
    def test_shipped_config_runs(self, tmp_path, name, command):
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / name),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        listed = manifest["outputs"]
        assert listed
        assert len(set(listed)) == len(listed), listed
        assert {p.name for p in out.iterdir()} == {"manifest.json", *listed}
        for output in listed:
            assert (out / output).is_file(), output


# Runs evolve on each (config, out) argument pair in one interpreter and
# exits 1 when any scipy module got loaded on the way.
NO_SCIPY = """
import sys
import ionquench.cli as cli
args = sys.argv[1:]
for cfg, out in zip(args[::2], args[1::2]):
    assert cli.main(["evolve", "--config", cfg, "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(loaded)
sys.exit(1 if loaded else 0)
"""


def test_exact_runs_load_no_scipy(tmp_path):
    """The import, a dense noisy exact run (N = 7 on trap couplings) and a
    Krylov run (N = 13) in a fresh interpreter load no scipy module."""
    dense = write_config(tmp_path, """
n_ions = 7
coupling_source = trap
target_alpha = 0.55
j_max_khz = 0.6
model = exact
patterns = 1; 2,4
n_times = 12
noise_samples = 4
j_noise_sigma = 0.12
seed = 3
""", "dense.cfg")
    krylov = write_config(tmp_path, """
n_ions = 13
alpha = 0.55
model = exact
patterns = 1
n_times = 6
t_max_over_jmax = 1
""", "krylov.cfg")
    outs = [tmp_path / "dense", tmp_path / "krylov"]
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, dense, str(outs[0]), krylov,
         str(outs[1])], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    methods = [json.loads((out / "manifest.json").read_text())
               ["derived"]["method"] for out in outs]
    assert methods == [{"p1": "dense", "p2-4": "dense"}, {"p1": "krylov"}]
