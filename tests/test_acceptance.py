"""End-to-end checks of the headline physics at fixed operating points.

Every test pins its own runtime budget; tolerances are the advertised
package guarantees, well above the measured slack on the reference
machine.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (B_FIELD, JMAX, conditional_marginals,
                     detected_probability, evolve, excitation_drift,
                     fock_occupation_dynamics, mixture_conditional_truth,
                     noise_average, observable_c, postselected, propagator,
                     scaled_couplings)
from ionquench.cli import main
from ionquench.constants import elementary_charge
from ionquench.coupling import effective_potential, power_law_couplings
from ionquench.exact import (build_full_ising, build_xy_sector,
                             default_time_grid, diagonal_ensemble)
from ionquench.lattice import (YB171_MASS, TrapConfig,
                               axial_scale_from_spacing, exact_modes)
from ionquench.observables import ExcitationPattern
from ionquench.spinwave import build_spinwave, gge_state, quench_sz
from ionquench.stochastic import NoiseModel, shot_blocks

TWO_PI = 2.0 * math.pi


def test_soft_decay_trap_couplings_resolve_near_degenerate_gap(tmp_path):
    """Trap-derived couplings tuned to a soft decay exponent carry a
    weighted pair gap orders of magnitude below both J_max and the
    steep-exponent value."""
    start = time.perf_counter()
    cfg = tmp_path / "gaps.cfg"
    cfg.write_text(
        "n_ions = 7\n"
        "coupling_source = trap\n"
        "target_alpha = 0.55\n"
        "alpha_grid = 0.55,1.33\n"
        "model = spinwave\n"
        "patterns = 1\n"
    )
    out = tmp_path / "out"
    assert main(["gaps", "--config", str(cfg), "--out", str(out)]) == 0
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    gaps = derived["min_weighted_gap_over_jmax"]
    assert gaps["0.55"] <= 1e-2
    assert gaps["1.33"] >= 10.0 * gaps["0.55"]
    assert abs(derived["alpha_fit"]["0.55"] - 0.55) < 0.05
    assert time.perf_counter() - start < 1.0


def test_location_observable_vanishes_in_gge_and_diagonal_ensemble(trap55):
    """Inversion-symmetric couplings leave no left/right bias in either
    stationary prediction, for any pattern."""
    start = time.perf_counter()
    patterns7 = [ExcitationPattern(7, s)
                 for s in ((1,), (3,), (2, 4), (4, 6))]
    for jm in (power_law_couplings(7, JMAX, 0.55), trap55):
        sw = build_spinwave(jm, B_FIELD)
        h = build_full_ising(jm, B_FIELD)
        for pattern in patterns7:
            assert abs(observable_c(gge_state(sw, pattern).sz_gge)) <= 1e-9
            assert abs(observable_c(diagonal_ensemble(h, pattern))) <= 1e-8

    jm10 = power_law_couplings(10, JMAX, 0.55)
    pattern = ExcitationPattern(10, (2,))
    sw10 = build_spinwave(jm10, B_FIELD)
    assert abs(observable_c(gge_state(sw10, pattern).sz_gge)) <= 1e-9
    h10 = build_full_ising(jm10, B_FIELD)
    assert abs(observable_c(diagonal_ensemble(h10, pattern))) <= 1e-8
    assert time.perf_counter() - start < 1.0


def test_steep_decay_quench_relaxes_to_gge():
    """At decay exponent 1.33 the noise-averaged exact dynamics settle
    onto the GGE magnetizations site by site."""
    start = time.perf_counter()
    jm = power_law_couplings(7, JMAX, 1.33)
    pattern = ExcitationPattern(7, (1,))
    times = default_time_grid(JMAX)
    sz_gge = gge_state(build_spinwave(jm, B_FIELD), pattern).sz_gge

    bare = evolve(build_full_ising(jm, B_FIELD), pattern, times)
    assert np.abs(bare.sz.mean(axis=0) - sz_gge).max() < 0.1

    model = NoiseModel(j_relative_sigma=0.12, seed=0)
    noisy = noise_average(
        lambda scales: ([evolve(build_full_ising(scaled_couplings(jm, s),
                                                 B_FIELD),
                                pattern, times).sz] for s in scales),
        times, model, 128,
    )[0]
    assert np.abs(noisy.sz.mean(axis=0) - sz_gge).max() < 0.1
    assert time.perf_counter() - start < 60.0


def test_soft_decay_quench_remembers_initial_side(trap55):
    """Trap couplings at soft decay keep the excitation on its starting
    side: the cumulative location observable stays finite with the
    initial sign, and mirrored patterns give exactly opposite values."""
    start = time.perf_counter()
    times = default_time_grid(trap55.j_max)
    h = build_full_ising(trap55, B_FIELD)

    def cumulative_c(pattern):
        return evolve(h, pattern, times).c_cumulative[-1]

    left_single = cumulative_c(ExcitationPattern(7, (1,)))
    right_single = cumulative_c(ExcitationPattern(7, (7,)))
    assert left_single < -0.15
    assert right_single > 0.15
    assert abs(left_single + right_single) <= 1e-6

    left_pair = cumulative_c(ExcitationPattern(7, (2, 4)))
    right_pair = cumulative_c(ExcitationPattern(7, (4, 6)))
    assert left_pair < -0.15
    assert right_pair > 0.15
    assert abs(left_pair + right_pair) <= 1e-6

    model = NoiseModel(j_relative_sigma=0.12, seed=0)
    noisy = noise_average(
        lambda scales: ([evolve(build_full_ising(scaled_couplings(trap55, s),
                                                 B_FIELD),
                                ExcitationPattern(7, (1,)), times).sz]
                        for s in scales),
        times, model, 128,
    )[0]
    assert noisy.c_cumulative[-1] < -0.15
    assert time.perf_counter() - start < 120.0


def test_model_hierarchy_agrees_at_strong_field():
    """With the field far above J_max, the number-conserving reduction
    tracks the full model within 0.02 and the boson model within 0.05;
    the boson propagator matches a dense truncated-Fock exponential."""
    start = time.perf_counter()
    b_strong = 2400.0 * JMAX
    assert b_strong / JMAX >= 10.0
    pattern = ExcitationPattern(7, (1,))
    times = default_time_grid(JMAX)
    for alpha in (0.55, 1.33):
        jm = power_law_couplings(7, JMAX, alpha)
        full = evolve(build_full_ising(jm, b_strong), pattern, times).sz
        xy = evolve(build_xy_sector(jm, b_strong, 1), pattern, times).sz
        sw = quench_sz(build_spinwave(jm, b_strong), [pattern], times)[0]
        assert np.abs(full - xy).max() <= 0.02
        assert np.abs(full - sw).max() <= 0.05

    jm4 = power_law_couplings(4, JMAX, 0.55)
    pat4 = ExcitationPattern(4, (2,))
    t4 = np.linspace(0.0, 10.0 / JMAX, 7)
    sw4 = quench_sz(build_spinwave(jm4, B_FIELD), [pat4], t4)[0]
    n_ref = fock_occupation_dynamics(jm4.j_script, B_FIELD,
                                     pat4.occupations(), t4, n_max=4)
    assert np.abs(sw4 - (2.0 * n_ref - 1.0)).max() <= 1e-3
    assert time.perf_counter() - start < 60.0


def test_strong_field_conserves_total_excitation(trap55):
    start = time.perf_counter()
    pattern = ExcitationPattern(7, (1,))
    for jm in (power_law_couplings(7, JMAX, 0.55),
               power_law_couplings(7, JMAX, 1.33), trap55):
        trace = evolve(build_full_ising(jm, B_FIELD), pattern,
                       default_time_grid(jm.j_max))
        assert excitation_drift(trace) < 0.05
    assert time.perf_counter() - start < 30.0


def test_boson_time_average_matches_gge():
    start = time.perf_counter()
    jm = power_law_couplings(5, JMAX, 1.33)
    sys = build_spinwave(jm, B_FIELD)
    pattern = ExcitationPattern(5, (1,))
    assert np.unique(sys.epsilons).size == 5  # nondegenerate spectrum
    times = np.linspace(0.0, 500.0 / JMAX, 2001)
    sz = quench_sz(sys, [pattern], times)[0]
    sz_gge = gge_state(sys, pattern).sz_gge
    assert np.abs(sz.mean(axis=0) - sz_gge).max() < 0.02
    assert time.perf_counter() - start < 30.0


def test_twenty_two_ion_memory_signal():
    start = time.perf_counter()
    jm = power_law_couplings(22, JMAX, 0.55)
    h = build_xy_sector(jm, B_FIELD, 1)
    times = np.linspace(0.0, 36.0 / JMAX, 80)
    trace = evolve(h, ExcitationPattern(22, (1,)), times)
    assert time.perf_counter() - start < 10.0
    assert trace.c_cumulative[-1] < -0.1


def test_hundred_ion_couplings_form_double_well():
    """Near-resonant drive at N=100: the coupling diagonal is a central
    dome (two wells against the chain ends), its central region is
    nearly parabolic, and the lowest hopping doublet recombines into
    states living in one well each."""
    start = time.perf_counter()
    trap = TrapConfig(n_ions=100, omega_x=TWO_PI * 4.8e6,
                      omega_z=axial_scale_from_spacing(
                          YB171_MASS, elementary_charge, 5e-6),
                      mu=TWO_PI * 4.8e6 * (1.0 + 1e-5), rabi=TWO_PI * 50e3)
    from ionquench.coupling import ion_couplings
    jm = ion_couplings(trap, exact_modes(trap))
    pot = effective_potential(jm)
    n = 100

    peak = int(np.argmax(pot.u))
    assert 0 < peak < n - 1
    assert pot.well_minima_sites == (1, 100)
    assert pot.barrier_height > 0

    # harmonic anti-trap: -U is an upright parabola over the middle 80%
    sites = np.arange(1, n + 1, dtype=float)
    lo, hi = int(0.1 * n), int(0.9 * n)
    window = slice(lo, hi)
    coef = np.polyfit(sites[window], -pot.u[window], 2)
    assert coef[0] > 0
    resid = -pot.u[window] - np.polyval(coef, sites[window])
    span = pot.u[window].max() - pot.u[window].min()
    assert np.sqrt(np.mean(resid**2)) / span < 0.1

    evals, evecs = np.linalg.eigh(jm.j_script)
    assert evals[1] - evals[0] < 1e-6 * jm.j_max  # tunneling doublet
    plus = (evecs[:, 0] + evecs[:, 1]) / np.sqrt(2.0)
    minus = (evecs[:, 0] - evecs[:, 1]) / np.sqrt(2.0)
    half = n // 2
    weights = sorted([np.sum(plus[:half] ** 2), np.sum(minus[:half] ** 2)])
    assert weights[0] < 0.2   # one state lives right
    assert weights[1] > 0.8   # the other lives left
    assert time.perf_counter() - start < 5.0


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_ions = 5\n"
        "model = spinwave\n"
        "alpha = 0.55\n"
        "n_times = 8\n"
        "noise_samples = 3\n"
        "n_shots = 300\n"
        "seed = 31\n"
    )
    for command in ("evolve", "shots"):
        dirs = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        for out in dirs:
            argv = [command, "--config", str(cfg), "--out", str(out)]
            if command == "shots":
                argv += ["--model", "xy"]
            assert main(argv) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert ((dirs[0] / name).read_bytes()
                    == (dirs[1] / name).read_bytes()), (command, name)
    assert time.perf_counter() - start < 120.0


def test_shot_estimates_cover_exact_conditional_truth():
    """Post-selected estimates must sit within 3 standard errors of the
    analytic conditional law on at least 95% of site-trials."""
    start = time.perf_counter()
    jm = power_law_couplings(7, JMAX, 1.33)
    pattern = ExcitationPattern(7, (2,))
    t_shot = np.array([8.0 / JMAX])
    prep, det = 0.97, 0.05

    def run_to_sz(pats):
        return np.array([
            evolve(build_xy_sector(jm, B_FIELD, pat.n_excitations), pat,
                   t_shot).sz[0] for pat in pats])

    p_intended = (run_to_sz([pattern])[0] + 1.0) / 2.0
    components = [
        (1.0 - prep, detected_probability(np.zeros(7), det)),
        (prep, detected_probability(p_intended, det)),
    ]
    truth = mixture_conditional_truth(components, 1)

    hits = total = 0
    for trial in range(50):
        model = NoiseModel(prep_flip_fidelity=prep, detection_error=det,
                           seed=1000 + trial)
        res = postselected(shot_blocks(pattern, run_to_sz, model, 1500), 1)
        err = np.maximum(res.p_err, 1.0 / res.n_accepted)
        hits += int(np.sum(np.abs(res.p_up - truth) <= 3.0 * err))
        total += truth.size
    assert total == 350
    assert hits >= 0.95 * total
    assert time.perf_counter() - start < 120.0


def test_detection_free_postselection_is_unbiased():
    """With perfect preparation and readout the conditional law reduces
    to the plain Poisson-binomial conditioning."""
    jm = power_law_couplings(5, JMAX, 0.55)
    pattern = ExcitationPattern(5, (2,))
    t_shot = np.array([8.0 / JMAX])
    h = build_xy_sector(jm, B_FIELD, 1)
    p = (evolve(h, pattern, t_shot).sz[0] + 1.0) / 2.0
    model = NoiseModel(prep_flip_fidelity=1.0, detection_error=0.0, seed=3)
    res = postselected(shot_blocks(
        pattern, lambda pats: np.array([evolve(h, pat, t_shot).sz[0]
                                        for pat in pats]), model, 30000), 1)
    truth = conditional_marginals(p, 1)
    err = np.maximum(res.p_err, 1.0 / res.n_accepted)
    assert np.all(np.abs(res.p_up - truth) < 4.0 * err)


def test_boson_propagator_stays_symplectic_at_long_times():
    jm = power_law_couplings(7, JMAX, 0.55)
    sys = build_spinwave(jm, B_FIELD)
    prop = propagator(sys, 500.0 / JMAX)
    resid = prop.u @ prop.u.conj().T - prop.w @ prop.w.conj().T - np.eye(7)
    assert np.abs(resid).max() < 1e-8
