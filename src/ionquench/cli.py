"""Command-line front end.

Subcommands map onto the library layers: couplings, evolve, gge, gaps,
shots and sweep-alpha.  Every run reads one flat key-value config file,
writes CSV/JSON artifacts into the output directory and is bytewise
reproducible for a fixed config and seed.  A ``cmd_*`` handler lays
out each file's header and columns itself, writes it through
``out / name`` and the iocsv encoders, and returns its manifest sections
(``derived``, ``diagnostics``); ``main`` then writes manifest.json with
the command, version, config, those sections and ``outputs``, the names
of the files written, in write order.  ``main`` creates the output
directory before any command runs; one that cannot be created, or an
output file that cannot be written, is a configuration error.

Exit codes: 0 success, 2 configuration error, 3 numerical or stability
failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .config import MODELS, RunConfig, load_config
from .coupling import detuning_scan, effective_potential
from .errors import ConfigError, EmptySelectionError, SimulationError
from .exact import (HamiltonianRep, build_full_ising, build_xy_sector,
                    default_time_grid, diagonal_ensemble, evolve_draws,
                    level_gaps)
from .iocsv import write_csv, write_manifest, write_shot_lines
from .lattice import equilibrium_positions
from .observables import ExcitationPattern, assemble_trace
from .spinwave import (SpinWaveSystem, build_spinwave, gge_state,
                       pair_gap_spectrum, quench_sz)
from .stochastic import ShotCounts, noise_scales, shot_blocks


def _pattern_tag(pattern: ExcitationPattern) -> str:
    return "p" + ("-".join(str(i) for i in pattern.flipped) or "none")


class _OutDir:
    """The output directory of a run.  ``out / name`` is the path of the
    file name and records name, so ``names`` lists the files a command
    wrote, in write order."""

    def __init__(self, path: Path):
        self.path = path
        self.names: list[str] = []

    def __truediv__(self, name: str) -> Path:
        self.names.append(name)
        return self.path / name


class _Dynamics:
    """The configured model of one coupling matrix, built on first use.

    Patterns of one sector share one HamiltonianRep and so its cached
    spectrum: the full model for exact (both parity sectors), one rep
    per excitation number for xy.  Spin waves scale the one system of
    the unscaled couplings per draw.  A noise-free run is the draw s = 1.
    Every model returns the draw mean of its quenches, adding the draws
    in draw order, so memory does not grow with the draw count.
    """

    def __init__(self, cfg: RunConfig, jm):
        self.cfg = cfg
        self.jm = jm
        self._reps: dict[int | None, HamiltonianRep] = {}

    def rep(self, pattern: ExcitationPattern) -> HamiltonianRep:
        """The exact or xy Hamiltonian whose basis holds the pattern."""
        k = pattern.n_excitations if self.cfg.model == "xy" else None
        if k not in self._reps:
            self._reps[k] = (build_full_ising(self.jm, self.cfg.b_field)
                             if k is None else
                             build_xy_sector(self.jm, self.cfg.b_field, k))
        return self._reps[k]

    @cached_property
    def spinwave(self) -> SpinWaveSystem:
        return build_spinwave(self.jm, self.cfg.b_field)

    def evolve_draws(self, patterns, times: np.ndarray, scales):
        """The mean sz (P, T, N) of the patterns over the noise draws
        J -> s J and the largest norm error, None for spin waves.

        exact and xy run exact.evolve_draws on this model's reps; spin
        waves add the quench_sz of each self.spinwave.scaled(s) to a
        total that starts from zeros, as exact.evolve_draws does.
        """
        if self.cfg.model != "spinwave":
            mean, err = evolve_draws([(self.rep(p), p) for p in patterns],
                                     times, scales)
            return mean, float(err.max())
        total = np.zeros((len(patterns), times.size, self.jm.n_ions))
        for s in scales:
            total += quench_sz(self.spinwave.scaled(s), patterns, times)
        return total / len(scales), None


def cmd_couplings(cfg: RunConfig, out: _OutDir) -> dict:
    jm, trap, modes = cfg.couplings()
    sites = np.arange(1, jm.n_ions + 1)
    write_csv(out / "j_matrix.csv", ("i", "j", "J_rad_per_s"),
              (sites[:, None], sites, jm.j))
    derived = {
        "j_max_rad_per_s": jm.j_max,
        "alpha_fit": jm.alpha_fit,
        "n_ions": jm.n_ions,
    }
    if trap is not None:
        for name, values in (("positions", equilibrium_positions(trap)),
                             ("mode_kappas", modes.kappas),
                             ("mode_frequencies", modes.frequencies)):
            write_csv(out / f"{name}.csv", ("index", "value"),
                      (np.arange(values.size), values))
        pot = effective_potential(jm)
        write_csv(out / "potential.csv", ("site", "U_rad_per_s"),
                  (sites, pot.u))
        derived.update(
            mu_rad_per_s=trap.mu,
            rabi_rad_per_s=trap.rabi,
            omega_z_rad_per_s=trap.omega_z,
            barrier_height_rad_per_s=pot.barrier_height,
            well_minima_sites=list(pot.well_minima_sites),
        )
    return {"derived": derived}


def cmd_evolve(cfg: RunConfig, out: _OutDir) -> dict:
    jm, _, _ = cfg.couplings()
    r = cfg.raw
    times = default_time_grid(jm.j_max, r["t_max_over_jmax"], r["n_times"])
    ns = r["noise_samples"]
    # a noisy run's trace and C files end in the scalar column n_samples
    tail = {"n_samples": ns} if ns else {}
    sites = np.arange(1, cfg.n_ions + 1)
    dyn = _Dynamics(cfg, jm)
    sw = dyn.spinwave   # built before any write: an unstable one exits 3
    sections = {"derived": {
        "j_max_rad_per_s": jm.j_max,
        "alpha_fit": jm.alpha_fit,
        "t_max_seconds": float(times[-1]),
    }}
    scales = noise_scales(cfg.noise_model(), ns) if ns else [1.0]
    mean, norm_error = dyn.evolve_draws(cfg.patterns, times, scales)
    if ns:
        sections["diagnostics"] = {"noise_scales": scales}
        if norm_error is not None:  # spin waves propagate no state vector
            sections["diagnostics"]["max_norm_error"] = norm_error
    if cfg.model != "spinwave":
        sections["derived"]["method"] = {
            _pattern_tag(p): "dense" if dyn.rep(p).dense else "krylov"
            for p in cfg.patterns}
    for pattern, sz in zip(cfg.patterns, mean):
        tag = _pattern_tag(pattern)
        trace = assemble_trace(times, sz)
        write_csv(out / f"trace_{cfg.model}_{tag}.csv",
                  ("t_seconds", "site", "sz", *tail),
                  (trace.times[:, None], sites, trace.sz, *tail.values()))
        write_csv(out / f"c_{cfg.model}_{tag}.csv",
                  ("t_seconds", "C", "C_cumulative", *tail),
                  (trace.times, trace.c_series, trace.c_cumulative,
                   *tail.values()))
        write_csv(out / f"gge_{tag}.csv", ("site", "sz_gge"),
                  (sites, gge_state(sw, pattern).sz_gge))
        if cfg.model != "spinwave" and dyn.rep(pattern).dense:
            write_csv(out / f"diag_ensemble_{tag}.csv", ("site", "sz_diag"),
                      (sites, diagonal_ensemble(dyn.rep(pattern), pattern)))
    return sections


def cmd_gge(cfg: RunConfig, out: _OutDir) -> dict:
    jm, _, _ = cfg.couplings()
    sw = _Dynamics(cfg, jm).spinwave
    for pattern in cfg.patterns:
        tag = _pattern_tag(pattern)
        state = gge_state(sw, pattern)
        write_csv(out / f"gge_{tag}.csv", ("site", "sz_gge"),
                  (np.arange(1, cfg.n_ions + 1), state.sz_gge))
        write_csv(out / f"gge_modes_{tag}.csv",
                  ("mode", "occupation", "lambda"),
                  (np.arange(len(state.lambdas)), state.d_occupations,
                   state.lambdas))
    return {}


def cmd_gaps(cfg: RunConfig, out: _OutDir) -> dict:
    pattern = cfg.patterns[0]
    if cfg.model == "spinwave" and pattern.n_excitations != 1:
        raise ConfigError("patterns: spin-wave gaps need a pattern of one "
                          f"flip, got {pattern.n_excitations}")
    jms, scan_range = cfg.grid_couplings()
    blocks = []   # the (3, gaps) alpha, gap and weight columns per exponent
    summary = {}
    fits = {}
    for alpha, jm in zip(cfg.alpha_grid, jms, strict=True):
        fits[str(alpha)] = jm.alpha_fit
        dyn = _Dynamics(cfg, jm)
        gaps, weights = (pair_gap_spectrum(dyn.spinwave, pattern)
                         if cfg.model == "spinwave" else
                         level_gaps(dyn.rep(pattern), pattern))
        gaps = gaps / jm.j_max
        blocks.append(np.stack(np.broadcast_arrays(alpha, gaps, weights)))
        heavy = gaps[weights > 1e-3]
        summary[str(alpha)] = float(heavy.min()) if heavy.size else None
    write_csv(out / "gaps.csv", ("alpha", "gap_over_jmax", "weight"),
              np.concatenate(blocks, axis=1))
    derived = {"min_weighted_gap_over_jmax": summary, "alpha_fit": fits}
    if scan_range is not None:
        derived["alpha_scan_range"] = list(scan_range)
    return {"derived": derived}


def cmd_shots(cfg: RunConfig, out: _OutDir) -> dict:
    jm, _, _ = cfg.couplings()
    r = cfg.raw
    t_over = (r["shot_time_over_jmax"] if r["shot_time_over_jmax"] >= 0
              else r["t_max_over_jmax"])
    t_shot = t_over / jm.j_max
    pattern = cfg.patterns[0]
    dyn = _Dynamics(cfg, jm)

    def run_to_sz(patterns):
        sz, _ = dyn.evolve_draws(patterns, np.array([t_shot]), [1.0])
        return sz[:, 0]

    counts = ShotCounts(pattern.n_excitations)
    blocks = shot_blocks(pattern, run_to_sz, cfg.noise_model(), r["n_shots"])
    path = out / "shots.txt"
    write_shot_lines(path, counts.tally(blocks))
    try:
        result = counts.result()
    except EmptySelectionError:
        path.unlink()  # a selection that kept no shot leaves no shots.txt
        raise
    write_csv(out / "shot_estimates.csv",
              ("site", "p_up", "p_err", "sz", "sz_err"),
              (np.arange(1, cfg.n_ions + 1), result.p_up, result.p_err,
               result.sz, result.sz_err))
    return {"derived": {
        "t_shot_seconds": t_shot,
        "acceptance_fraction": result.acceptance_fraction,
        "n_accepted": result.n_accepted,
        "target_excitations": pattern.n_excitations,
    }}


def cmd_sweep_alpha(cfg: RunConfig, out: _OutDir) -> dict:
    r = cfg.raw
    if r["coupling_source"] != "trap":
        raise ConfigError("coupling_source: trap parameters requested "
                          "but source is power_law")
    cfg.require_fit_ions()
    # a trap that tunes mu scans twice: couplings() fixes the drive and its
    # Rabi rescale, so J_max reads at that Rabi; the scan below gives the rows
    _, trap, modes = cfg.couplings()
    scan = detuning_scan(trap, modes, (r["scan_detuning_min"],
                                       r["scan_detuning_max"]),
                         r["scan_points"])
    rows = [(trial.mu, d, alpha, jm.j_max) for d, trial, jm, alpha in scan]
    write_csv(out / "alpha_scan.csv",
              ("mu_rad_per_s", "detuning_fraction", "alpha_fit",
               "j_max_rad_per_s"),
              np.array(rows, dtype=float).reshape(-1, 4).T)
    return {}


_COMMANDS = {
    "couplings": cmd_couplings,
    "evolve": cmd_evolve,
    "gge": cmd_gge,
    "gaps": cmd_gaps,
    "shots": cmd_shots,
    "sweep-alpha": cmd_sweep_alpha,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionquench",
        description="Quench dynamics of long-range Ising chains of trapped ions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key-value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="unsigned 64-bit seed override")
        p.add_argument("--model", choices=MODELS, default=None,
                       help="dynamics model override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the flags override the file's keys and pass the same checks
        overrides = {key: getattr(args, key) for key in ("seed", "model")
                     if getattr(args, key) is not None}
        cfg = RunConfig({**load_config(args.config).raw, **overrides})
        out = _OutDir(Path(args.out or str(cfg.raw["out_dir"])))
        try:  # making the directory and its files is the only I/O here
            out.path.mkdir(parents=True, exist_ok=True)
            sections = _COMMANDS[args.command](cfg, out)
            write_manifest(out.path / "manifest.json",
                           {"command": args.command, "version": __version__,
                            "config": dict(cfg.raw), **sections,
                            "outputs": out.names})
        except OSError as exc:
            raise ConfigError(f"out: cannot create {exc.filename or out.path}"
                              f": {exc.strerror}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
