"""Tests of the benchmark itself: python3 -m pytest bench"""

import dataclasses
import json
import time
from pathlib import Path

import pytest

import run
from checks import check_command, location_c
from tracer import PER_LAYER, layer_metrics, layer_totals, self_times
from workloads import WORKLOADS, Command, Job, make_job

SMALL = Job(
    config="n_ions = 5\nalpha = 1.0\nmodel = exact\npatterns = 2; 4\n"
           "n_times = 8\nnoise_samples = 3\nn_shots = 200\nseed = 11\n",
    commands=(
        Command(argv=("evolve",), outdir="evolve", n_ions=5,
                expected_rows={f"{kind}_{tag}.csv": rows
                               for tag in ("p2", "p4")
                               for kind, rows in (("trace_exact", 40),
                                                  ("c_exact", 8), ("gge", 5),
                                                  ("diag_ensemble", 5))},
                mirror_pairs=(("c_exact_p2.csv", "c_exact_p4.csv"),)),
        Command(argv=("shots",), outdir="shots", n_ions=5,
                expected_rows={"shots.txt": 200, "shot_estimates.csv": 5}),
    ),
)


def runner(tmp_path) -> run.Runner:
    return run.Runner(tmp_path, time.perf_counter() + 120)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_with_fixed_job_size(workload):
    assert make_job(workload, 5, 3) == make_job(workload, 5, 3)
    jobs = [make_job(workload, seed, i) for seed in range(4) for i in range(3)]
    assert len({job.config for job in jobs}) > 1
    sizes = {tuple((c.argv, tuple(sorted(c.expected_rows.values())))
                   for c in job.commands) for job in jobs}
    assert len(sizes) == 1


def test_self_time_subtracts_union_of_children():
    spans = [
        [0, "root", 0.0, 10.0, -1, None],
        [1, "a", 1.0, 3.0, 0, None],
        [2, "b", 2.0, 5.0, 0, None],     # overlaps a
        [3, "c", 8.0, 12.0, 0, None],    # runs past the root's end
        [4, "d", 1.5, 2.5, 1, None],     # grandchild: not the root's child
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_location_c_matches_definition():
    assert location_c([1.0, -1.0, -1.0]) == pytest.approx(-1.0)
    assert location_c([-1.0, 1.0, -1.0]) == pytest.approx(0.0)


def test_traced_job_writes_identical_outputs(tmp_path):
    r = runner(tmp_path)
    plain = r.run_job(SMALL, tmp_path / "plain", trace=False)
    traced = r.run_job(SMALL, tmp_path / "traced", trace=True)
    assert plain.problems == [] and traced.problems == []
    assert run.same_outputs(tmp_path / "plain" / "out",
                            tmp_path / "traced" / "out")
    metrics = layer_metrics(traced.totals)
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_frac"}
    assert metrics["exact.dense_calls"] == 2 * 3 + 1
    assert metrics["stochastic.shots"] == 200
    assert metrics["stochastic.noise_samples"] == 2 * 3
    assert 0 < metrics["stochastic.accept_ratio"] <= 1


def _replace_value(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("file, row, col, value, problem", [
    ("trace_exact_p2.csv", 1, 2, "1.01", "sz outside [-1, 1]"),
    ("c_exact_p4.csv", 3, 1, "0.5", "mirror C differs"),
    ("gge_p2.csv", 1, 1, "-0.9", "GGE |C|"),
    ("diag_ensemble_p4.csv", 2, 1, "-0.9", "diagonal-ensemble |C|"),
    ("c_exact_p2.csv", 5, 2, "0.3", "cumulative C left its initial side"),
])
def test_checks_catch_corrupted_outputs(tmp_path, file, row, col, value,
                                        problem):
    job = Job(SMALL.config, SMALL.commands[:1])
    assert runner(tmp_path).run_job(job, tmp_path / "job", False).problems == []
    out = tmp_path / "job" / "out" / "evolve"
    _replace_value(out / file, row, col, value)
    cmd = dataclasses.replace(job.commands[0], memory_sign=True)
    assert any(problem in p for p in check_command(cmd, out))


def test_layer_totals_count_outermost_io_once():
    spans = [
        [0, "iocsv.write_matrix_csv", 0.0, 2.0, -1, {"bytes": 10}],
        [1, "iocsv.write_csv", 0.5, 1.5, 0, {"bytes": 10}],
    ]
    totals = layer_totals(spans)
    assert totals["iocsv.bytes"] == 10
    assert totals["iocsv.write_s"] == pytest.approx(2.0)


BAD_CONFIG = Job(config="n_ions = 1\n", commands=SMALL.commands[:1])
BAD_CHECK = Job(config=SMALL.config, commands=(
    Command(argv=("evolve",), outdir="evolve", n_ions=5,
            expected_rows={"trace_exact_p2.csv": 41}),))


@pytest.mark.parametrize("job, problem", [(BAD_CONFIG, "exit 2"),
                                          (BAD_CHECK, "rows, expected 41")])
def test_failed_jobs_count_in_failed_frac(job, problem, monkeypatch, capsys):
    monkeypatch.setattr(run, "make_job", lambda *args: job)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)
    assert run.main(["--workload", "dense-full", "--seed", "0",
                     "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert problem in lines[0]
    assert json.loads(lines[-2])["failed_frac"] == 1.0
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 1, 1)


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
