"""Benchmark of the ionquench CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client runs one job at a time (closed loop) for S seconds.  A
job is one or more CLI invocations on a config generated from the seed
(see workloads.py); each invocation runs in a fresh interpreter that
imports ``ionquench.cli`` and calls ``cli.main``, as every command-line
run does, so nothing is shared between runs.  Every job's outputs are
checked (checks.py); a job fails on a non-zero exit, a missing output or
a failed check.

With ``--trace 0`` the run reports the end-to-end metrics:
  job_s        median over the run's jobs of the time spent in cli.main
               (summed over the job's invocations, import excluded)
  setup_s      median fresh-interpreter ``import ionquench.cli`` time over
               the run's invocations, topped up with import-only
               interpreters to SETUP_SAMPLES timings
  peak_rss_mb  largest max-RSS of any invocation in the run (MiB)
A tail percentile is not reported: no run holds the hundred jobs a p90
with ten jobs beyond it would need.

With ``--trace 1`` each job runs twice, untraced and traced (tracer.py),
the two output trees must be byte-identical, and the run reports the
per-layer metrics of the traced jobs (medians over jobs) plus the
tracing overhead.

BLAS threads are pinned to BLAS_THREADS for every invocation.  The last
line of standard output is the JSON result (``failed / attempted`` is the
failed fraction); the line before it records the job count, the failed
fraction and the environment.  Job outputs go to .bench_work/ and are
deleted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_command
from tracer import PER_LAYER, layer_metrics, layer_totals
from workloads import WORKLOADS, make_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread: a plain single-threaded baseline that fits any machine
# (nproc >= 1).  With two threads on a 2-core machine the 128 x 128 eigh
# calls of noise-memory ran slower and only dense-full gained.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 8      # fewest import timings behind setup_s
RUN_LIMIT_S = 160      # no child outlives this much of a run

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobResult:
    problems: list[str] = field(default_factory=list)
    job_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    totals: list[dict] = field(default_factory=list)  # per traced process


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **{v: str(BLAS_THREADS)
                                       for v in THREAD_VARS})
        self.n_children = 0

    def child(self, argv, trace: bool) -> dict | str:
        """Run job.py once; its result, or why it failed."""
        self.n_children += 1
        stem = self.work / f"child{self.n_children}"
        spec = stem.with_suffix(".spec.json")
        result = stem.with_suffix(".result.json")
        spec.write_text(json.dumps({"src": str(SRC), "result": str(result),
                                    "trace": trace, "argv": argv}))
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(stem.with_suffix(".log"), "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "job.py"), str(spec)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                return f"{argv[0] if argv else 'import'}: timed out"
        if proc.returncode != 0:
            last = (stem.with_suffix(".log").read_text().strip()
                    .splitlines() or [""])[-1]
            return f"{argv[0] if argv else 'import'}: exit {proc.returncode} {last}"
        return json.loads(result.read_text())

    def run_job(self, job, jobdir: Path, trace: bool) -> JobResult:
        jobdir.mkdir(parents=True)
        config = jobdir / "job.cfg"
        config.write_text(job.config)
        res = JobResult()
        for cmd in job.commands:
            out = jobdir / "out" / cmd.outdir
            got = self.child([*cmd.argv, "--config", str(config),
                              "--out", str(out)], trace)
            if isinstance(got, str):
                res.problems.append(got)
                break
            res.job_s += got["job_s"]
            res.setup_s.append(got["setup_s"])
            res.rss_mb = max(res.rss_mb, got["maxrss_kb"] / 1024.0)
            if trace:
                res.totals.append(layer_totals(got["spans"]))
            res.problems += [f"{cmd.outdir}/{p}"
                             for p in check_command(cmd, out)]
        return res


def same_outputs(a: Path, b: Path) -> bool:
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    return (files == sorted(p.relative_to(b) for p in b.rglob("*")
                            if p.is_file())
            and all((a / f).read_bytes() == (b / f).read_bytes()
                    for f in files))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def closed_loop(seconds: float, step) -> None:
    """Call step(0), step(1), ... while the next call should end in time.

    The next call is assumed to take as long as the last one; the first
    call always runs.
    """
    start = time.perf_counter()
    for i in itertools.count():
        began = time.perf_counter()
        step(i)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def timed_run(runner: Runner, workload: str, seed: int, seconds: float):
    results = []

    def step(i):
        jobdir = runner.work / f"job{i}"
        res = runner.run_job(make_job(workload, seed, i), jobdir, trace=False)
        shutil.rmtree(jobdir)
        results.append(res)
        print(f"# job {i + 1}: {res.job_s:.4f} s "
              f"{'; '.join(res.problems) or 'ok'}", flush=True)

    closed_loop(seconds, step)
    setup = [s for r in results for s in r.setup_s]
    while len(setup) < SETUP_SAMPLES:
        got = runner.child(None, trace=False)
        if isinstance(got, str):
            break
        setup.append(got["setup_s"])
    ok = [r for r in results if not r.problems]
    metrics = {
        "job_s": _median([r.job_s for r in ok]),
        "setup_s": _median(setup),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    return results, metrics, END_TO_END


def traced_run(runner: Runner, workload: str, seed: int, seconds: float):
    """Untraced and traced runs of the same jobs, in alternating order."""
    results, plain, traced = [], [], []

    def step(i):
        job = make_job(workload, seed, i)
        dirs = {False: runner.work / f"job{i}", True: runner.work / f"job{i}t"}
        order = (False, True) if i % 2 == 0 else (True, False)
        pair = {t: runner.run_job(job, dirs[t], trace=t) for t in order}
        if not (pair[False].problems or pair[True].problems
                or same_outputs(dirs[False] / "out", dirs[True] / "out")):
            pair[True].problems.append("traced outputs differ from untraced")
        for d in dirs.values():
            shutil.rmtree(d)
        plain.append(pair[False])
        traced.append(pair[True])
        results.extend(pair.values())
        print(f"# job {i + 1}: {pair[False].job_s:.4f} s untraced, "
              f"{pair[True].job_s:.4f} s traced "
              f"{'; '.join(pair[False].problems + pair[True].problems) or 'ok'}",
              flush=True)

    closed_loop(seconds, step)
    ok = [r for r in traced if not r.problems]
    per_job = [layer_metrics(r.totals) for r in ok]
    metrics = {name: _median([m[name] for m in per_job])
               for name in PER_LAYER if name != "trace.overhead_frac"}
    plain_s = _median([r.job_s for r in plain if not r.problems])
    metrics["trace.overhead_frac"] = (
        _median([r.job_s for r in ok]) / plain_s - 1.0 if plain_s else 0.0)
    return results, metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ionquench" / "cli.py").is_file():
        print(f"bench: no ionquench package under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, time.perf_counter() + RUN_LIMIT_S)
    try:
        # untimed warm-up: byte-compiles the package and reports versions
        probe = runner.child(None, trace=False)
        if isinstance(probe, str):
            print(f"bench: cannot import ionquench.cli ({probe})",
                  file=sys.stderr)
            return 1
        run = traced_run if args.trace else timed_run
        results, metrics, units = run(runner, args.workload, args.seed,
                                      args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(results)
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": attempted, "failed_frac": failed / attempted,
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "blas_threads": BLAS_THREADS, **probe["env"]},
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
