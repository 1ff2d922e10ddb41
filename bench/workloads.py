"""Seeded job generator for the benchmark workloads.

A job is one or more CLI invocations on one generated config.  Every
random choice (noise seed, excitation sites) comes from the workload
seed and the job's index in the run, so the same seed gives the same
jobs.  The size of a job (patterns, excitations, time points, noise
draws, shots) is fixed per workload and never depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``ionquench <argv> --config job.cfg --out DIR``."""

    argv: tuple[str, ...]
    outdir: str                      # relative to the job's output root
    n_ions: int
    expected_rows: dict[str, int]    # file -> data rows (lines for .txt)
    mirror_pairs: tuple[tuple[str, str], ...] = ()   # C files of mirrors
    memory_sign: bool = False        # cumulative C keeps the initial side


@dataclass(frozen=True)
class Job:
    config: str                      # config file text
    commands: tuple[Command, ...]


def pattern_tag(sites) -> str:
    return "p" + "-".join(str(i) for i in sorted(sites))


def mirror(sites, n: int) -> tuple[int, ...]:
    return tuple(sorted(n + 1 - i for i in sites))


def _config(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _evolve_command(n: int, model: str, patterns, n_times: int,
                    dense_ensemble: bool, memory_sign: bool = False) -> Command:
    """``evolve`` on patterns given as mirror pairs [a, mirror(a), ...]."""
    rows = {}
    for sites in patterns:
        tag = pattern_tag(sites)
        rows[f"trace_{model}_{tag}.csv"] = n_times * n
        rows[f"c_{model}_{tag}.csv"] = n_times
        rows[f"gge_{tag}.csv"] = n
        if dense_ensemble:
            rows[f"diag_ensemble_{tag}.csv"] = n
    return Command(argv=("evolve",), outdir="evolve", n_ions=n,
                   expected_rows=rows,
                   mirror_pairs=tuple((f"c_{model}_{pattern_tag(a)}.csv",
                                       f"c_{model}_{pattern_tag(b)}.csv")
                                      for a, b in zip(patterns[::2],
                                                      patterns[1::2])),
                   memory_sign=memory_sign)


def _spec(patterns) -> str:
    return "; ".join(",".join(str(i) for i in p) for p in patterns)


# -- workloads ---------------------------------------------------------------
#
# Each generator takes a random.Random and returns one Job.

def noise_memory(rng: random.Random) -> Job:
    """Why: the paper's headline memory run (memory_longrange.cfg): 7 trap
    ions tuned to alpha = 0.55, 128 noise draws over four patterns.  It is
    bound by Python overhead and repeated small (128 x 128) eigh calls and
    fits in L2, so spectral caching and a vectorised trace assembly show
    here."""
    n = 7
    patterns = [(1,), (7,), (2, 4), (4, 6)]
    config = _config({
        "n_ions": n, "coupling_source": "trap", "target_alpha": 0.55,
        "j_max_khz": 0.6, "b_khz": 10, "model": "exact",
        "patterns": _spec(patterns), "t_max_over_jmax": 25, "n_times": 60,
        "noise_samples": 128, "j_noise_sigma": 0.12,
        "seed": rng.randrange(2**63),
    })
    cmd = _evolve_command(n, "exact", patterns, 60, True, memory_sign=True)
    return Job(config, (cmd,))


def _power_law_pair(rng: random.Random, n: int, extra: dict,
                    dense_ensemble: bool, n_times: int) -> Job:
    site = rng.randint(1, n // 2)
    patterns = [(site,), mirror((site,), n)]
    config = _config({
        "n_ions": n, "coupling_source": "power_law", "alpha": 0.55,
        "j_max_khz": 0.6, "b_khz": 10, "model": "exact",
        "patterns": _spec(patterns), "n_times": n_times, **extra,
    })
    cmd = _evolve_command(n, "exact", patterns, n_times, dense_ensemble)
    return Job(config, (cmd,))


def dense_full(rng: random.Random) -> Job:
    """Why: a few large LAPACK calls (2048^2 eigh, twice per pattern) on a
    working set bigger than the last-level cache.  Parity sectors and the
    duplicate eigh in cmd_evolve show in job_s and peak_rss_mb here; it
    does no noise averaging and little observables work."""
    return _power_law_pair(rng, 11, {}, dense_ensemble=True, n_times=60)


def krylov_full(rng: random.Random) -> Job:
    """Why: the only workload on the Krylov path (dimension 8192 is above
    DENSE_CAP), so a propagator replacement or a parity split that moves
    N = 13 onto the dense path shows here.  The horizon is short because
    the halving recursion makes long horizons take minutes; 21 points make
    the steps short enough that no step halves, so the cost hardly
    depends on the seed-chosen site (with 6 points it ranged from 8.6 to
    11.5 s by site on a 2-vCPU Xeon VM)."""
    return _power_law_pair(rng, 13, {"t_max_over_jmax": 1},
                           dense_ensemble=False, n_times=21)


def large_chain(rng: random.Random) -> Job:
    """Why: the only workload where lattice, spinwave, the per-shot readout
    loop and iocsv dominate (100-ion double-well trap chain, about 9 MB of
    output).  It does no exact work, so an exact or linalg change should
    leave it unchanged."""
    n = 100
    n_times = 200
    n_shots = 50000
    grid = (0.55, 1.33)
    single = (rng.randint(1, n // 2),)
    pair = tuple(sorted(rng.sample(range(1, n // 2 + 1), 2)))
    patterns = [single, mirror(single, n), pair, mirror(pair, n)]
    config = _config({
        "n_ions": n, "coupling_source": "trap", "mu_khz": 4800.048,
        "omega_x_khz": 4800, "rabi_khz": 50, "j_max_khz": 0,
        "model": "spinwave", "patterns": _spec(patterns),
        "alpha_grid": ",".join(str(a) for a in grid), "n_times": n_times,
        "n_shots": n_shots, "seed": rng.randrange(2**63),
    })
    commands = (
        Command(argv=("couplings",), outdir="couplings", n_ions=n,
                expected_rows={"j_matrix.csv": n * n, "positions.csv": n,
                               "mode_kappas.csv": n,
                               "mode_frequencies.csv": n,
                               "potential.csv": n}),
        Command(argv=("gaps",), outdir="gaps", n_ions=n,
                expected_rows={"gaps.csv": len(grid) * n * (n - 1) // 2}),
        _evolve_command(n, "spinwave", patterns, n_times, False),
        Command(argv=("shots",), outdir="shots", n_ions=n,
                expected_rows={"shots.txt": n_shots,
                               "shot_estimates.csv": n}),
    )
    return Job(config, commands)


WORKLOADS = {
    "noise-memory": noise_memory,
    "dense-full": dense_full,
    "krylov-full": krylov_full,
    "large-chain": large_chain,
}


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job number ``index`` of a run of ``workload`` with ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{index}"))
