import math

import numpy as np
import pytest

from helpers import (B_FIELD, JMAX, excitation_number,
                     fock_boson_hamiltonian, fock_occupation_dynamics,
                     observable_c, pattern_sz, propagator, scaled_couplings)
from ionquench.coupling import CouplingMatrix, power_law_couplings
from ionquench.errors import SectorError, SimulationError, StabilityError
from ionquench.observables import ExcitationPattern, assemble_trace
from ionquench.spinwave import (build_spinwave, gge_lambdas,
                                gge_occupations, gge_state,
                                pair_gap_spectrum, quench_sz)

TWO_PI = 2.0 * math.pi


def two_site_system(j, b):
    jm = CouplingMatrix.from_full(np.array([[0.0, j], [j, 0.0]]))
    return build_spinwave(jm, b)


def test_two_site_closed_form():
    j, b = 1.0, 10.0
    sys = two_site_system(j, b)
    assert sys.nus == pytest.approx([-j, j])
    expect_eps = [2 * math.sqrt(b * (b - j)), 2 * math.sqrt(b * (b + j))]
    assert sys.epsilons == pytest.approx(expect_eps)
    expect_theta = [0.5 * math.atanh(-j / (2 * b - j)),
                    0.5 * math.atanh(j / (2 * b + j))]
    assert sys.thetas == pytest.approx(expect_theta)


def test_unstable_field_rejected():
    with pytest.raises(StabilityError):
        two_site_system(1.0, 0.5)  # B + nu_min = -0.5
    with pytest.raises(ValueError):
        two_site_system(1.0, -1.0)


def test_scaled_one_is_the_system_itself(trap55):
    """1.0 * nus == nus, so the draw s = 1 repeats every float of the
    system it came from."""
    sys = build_spinwave(trap55, B_FIELD)
    same = sys.scaled(1.0)
    assert same.b_field == sys.b_field
    for name in ("nus", "modes", "thetas", "epsilons"):
        assert getattr(same, name).tobytes() == getattr(sys, name).tobytes()


@pytest.mark.parametrize("s", [0.6, 0.97, 1.05, 1.4])
def test_scaled_system_matches_the_rebuilt_one(trap55, s):
    """sJ has J's modes and eigenvalues s nu_k: the energies and angles of
    scaled(s) equal those of a system rebuilt from sJ to round-off."""
    sys = build_spinwave(trap55, B_FIELD).scaled(s)
    ref = build_spinwave(scaled_couplings(trap55, s), B_FIELD)
    assert np.abs(sys.epsilons - ref.epsilons).max() <= 1e-12 * B_FIELD
    assert np.abs(sys.thetas - ref.thetas).max() <= 1e-12


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
def test_scaled_refuses_a_scale_that_is_not_positive(s):
    with pytest.raises(ValueError, match="scale factor must be positive"):
        two_site_system(1.0, 10.0).scaled(s)


def test_scaled_draw_keeps_the_stability_and_overflow_checks():
    """nu = -1, 1: at B = 1.5 the draw s is unstable once 1.5 - s <= 0,
    and at B = 1.3e154 the draw s = 1e154 overflows B (B + s nu)."""
    sys = two_site_system(1.0, 1.5)
    assert np.all(sys.scaled(1.4).epsilons > 0)
    for s in (1.5, 2.0):
        with pytest.raises(StabilityError, match="B \\+ nu_min"):
            sys.scaled(s)
    big = two_site_system(1.0, 1.3e154)
    assert np.isfinite(big.epsilons).all()
    with pytest.raises(SimulationError, match="overflows an energy"):
        big.scaled(1e154)


def test_overflowing_energies_rejected():
    """2 sqrt(B (B + nu)) overflows in B (B + nu) once B passes about
    1.3e154 rad/s: the build raises instead of returning infinite
    energies, whose quenches read NaN."""
    jm = power_law_couplings(5, JMAX, 0.55)
    for b_khz in (1e155, 1e200):
        with pytest.raises(SimulationError, match="B = .* rad/s overflows"):
            build_spinwave(jm, TWO_PI * 1e3 * b_khz)
    assert np.isfinite(build_spinwave(jm, TWO_PI * 1e3 * 1e150).epsilons).all()


def test_gge_occupations_against_fock_oracle():
    """<d_k^dag d_k> evaluated directly in a truncated Fock space."""
    jm = power_law_couplings(3, JMAX, 0.8)
    sys = build_spinwave(jm, B_FIELD)
    pattern = ExcitationPattern(3, (1,))
    occ = gge_occupations(sys, pattern)

    n_max = 4
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)

    def embed(op, site):
        out = np.eye(1)
        for k in range(3, 0, -1):
            out = np.kron(out, op if k == site else np.eye(d))
        return out

    ops_a = [embed(a, s) for s in (1, 2, 3)]
    psi = np.zeros(d**3)
    psi[1] = 1.0  # site 1 holds one boson, fastest index
    for k in range(3):
        ck = sum(sys.modes[i, k] * ops_a[i] for i in range(3))
        dk = math.cosh(sys.thetas[k]) * ck + math.sinh(sys.thetas[k]) * ck.T
        val = psi @ (dk.T @ dk) @ psi
        assert val == pytest.approx(occ[k], abs=1e-12)


def test_gge_lambda_inversion_round_trip():
    occ = np.array([0.3, 1.7, 4.0])
    lam = gge_lambdas(occ)
    assert 1.0 / np.expm1(lam) == pytest.approx(occ)
    lam0 = gge_lambdas(np.array([0.0, 1.0]))
    assert lam0[0] == np.inf and np.isfinite(lam0[1])
    with pytest.raises(ValueError):
        gge_lambdas(np.array([-0.1]))


def test_gge_magnetization_range_and_vacuum():
    jm = power_law_couplings(6, JMAX, 0.55)
    sys = build_spinwave(jm, B_FIELD)
    state = gge_state(sys, ExcitationPattern(6, ()))
    # vacuum still carries quantum depletion, but barely at large B
    assert np.all(state.sz_gge > -1.0)
    assert np.all(state.sz_gge < -0.99)


def test_gge_location_observable_vanishes(trap55):
    for sites in ((1,), (2, 4), (4, 6), (1, 7)):
        state = gge_state(build_spinwave(trap55, B_FIELD),
                          ExcitationPattern(7, sites))
        assert abs(observable_c(state.sz_gge)) < 1e-9


def test_propagator_identity_at_t0():
    sys = build_spinwave(power_law_couplings(5, JMAX, 1.0), B_FIELD)
    prop = propagator(sys, 0.0)
    assert np.abs(prop.u - np.eye(5)).max() < 1e-12
    assert np.abs(prop.w).max() < 1e-12


def test_propagator_symplectic_norm():
    sys = build_spinwave(power_law_couplings(6, JMAX, 0.55), B_FIELD)
    for t in (0.3 / JMAX, 7.7 / JMAX, 25.0 / JMAX):
        prop = propagator(sys, t)
        resid = prop.u @ prop.u.conj().T - prop.w @ prop.w.conj().T - np.eye(6)
        assert np.abs(resid).max() < 1e-9


def test_evolution_matches_truncated_fock_oracle():
    jm = power_law_couplings(4, JMAX, 0.55)
    sys = build_spinwave(jm, B_FIELD)
    pattern = ExcitationPattern(4, (2,))
    times = np.linspace(0.0, 10.0 / JMAX, 7)
    sz = quench_sz(sys, [pattern], times)[0]
    n_ref = fock_occupation_dynamics(jm.j_script, B_FIELD,
                                     pattern.occupations(), times, n_max=4)
    assert np.abs(sz - (2.0 * n_ref - 1.0)).max() < 1e-3


def test_fock_hamiltonian_is_hermitian():
    jm = power_law_couplings(3, JMAX, 1.0)
    h, _ = fock_boson_hamiltonian(jm.j_script, B_FIELD, 3)
    assert np.abs(h - h.conj().T).max() < 1e-9


def test_mirror_pattern_reflects_trace(trap55):
    sys = build_spinwave(trap55, B_FIELD)
    times = np.linspace(0.0, 25.0 / JMAX, 30)
    left, right = (assemble_trace(times, quench_sz(sys, [pattern], times)[0])
                   for pattern in (ExcitationPattern(7, (2, 4)),
                                   ExcitationPattern(7, (4, 6))))
    assert np.abs(left.sz - right.sz[:, ::-1]).max() < 1e-10
    assert left.c_cumulative[-1] == pytest.approx(-right.c_cumulative[-1],
                                                  abs=1e-10)


def test_large_field_freezes_pair_production():
    jm = power_law_couplings(5, JMAX, 1.33)
    sys = build_spinwave(jm, 1e4 * JMAX)
    times = np.linspace(0.0, 5.0 / JMAX, 9)
    trace = assemble_trace(
        times, quench_sz(sys, [ExcitationPattern(5, (3,))], times)[0])
    # total excitation content stays at one for B >> J
    assert np.abs(excitation_number(trace) - 1.0).max() < 1e-6


def test_time_average_converges_to_gge():
    jm = power_law_couplings(5, JMAX, 1.33)
    sys = build_spinwave(jm, B_FIELD)
    pattern = ExcitationPattern(5, (1,))
    times = np.linspace(0.0, 500.0 / JMAX, 4001)
    sz = quench_sz(sys, [pattern], times)[0]
    state = gge_state(sys, pattern)
    assert np.abs(sz.mean(axis=0) - state.sz_gge).max() < 5e-3


def test_pair_gap_spectrum_single_excitation_only():
    sys = build_spinwave(power_law_couplings(7, JMAX, 0.55), B_FIELD)
    with pytest.raises(SectorError):
        pair_gap_spectrum(sys, ExcitationPattern(7, (2, 4)))
    gaps, weights = pair_gap_spectrum(sys, ExcitationPattern(7, (1,)))
    assert gaps.shape == weights.shape == (21,)
    assert np.all(weights >= 0) and np.all(weights <= 1)
    probs = sys.modes[0, :] ** 2
    assert weights.sum() == pytest.approx((1.0 - np.sum(probs**2)) / 2.0)


def test_short_range_limit_matches_nearest_neighbor_band():
    tri = np.zeros((7, 7))
    for i in range(6):
        tri[i, i + 1] = tri[i + 1, i] = JMAX
    sys_pl = build_spinwave(power_law_couplings(7, JMAX, 8.0), B_FIELD)
    sys_nn = build_spinwave(CouplingMatrix.from_full(tri), B_FIELD)
    assert np.abs(sys_pl.epsilons - sys_nn.epsilons).max() < 0.01 * JMAX


def test_pattern_size_guard():
    sys = build_spinwave(power_law_couplings(4, JMAX, 1.0), B_FIELD)
    with pytest.raises(ValueError):
        quench_sz(sys, [ExcitationPattern(5, (1,))], np.array([0.0]))


def _propagator_loop(sys, pattern, times):
    """Reference: one pair of N x N propagators per grid time."""
    n0 = pattern.occupations()
    sz = np.empty((len(times), sys.n_ions))
    for row, t in enumerate(times):
        prop = propagator(sys, t)
        n_t = (np.abs(prop.u) ** 2) @ n0 + (np.abs(prop.w) ** 2) @ (n0 + 1.0)
        sz[row] = 2.0 * n_t - 1.0
    return sz


@pytest.mark.parametrize("n", range(2, 13))
def test_batched_evolution_matches_propagator_loop(n):
    rng = np.random.default_rng(1000 + n)
    j = rng.uniform(-JMAX, JMAX, (n, n))
    jm = CouplingMatrix.from_full(j + j.T)
    nu_min = np.linalg.eigvalsh(jm.j_script)[0]
    sys = build_spinwave(jm, abs(nu_min) + rng.uniform(0.5, 5.0) * JMAX)
    several = tuple(sorted(rng.choice(np.arange(1, n + 1),
                                      size=max(2, n // 2), replace=False)))
    patterns = [(), (int(rng.integers(1, n + 1)),), several, (n,)]
    grids = [np.array([rng.uniform(0.0, 20.0 / JMAX)]),
             np.linspace(0.0, 20.0 / JMAX, 17)]
    for flipped in patterns:
        pattern = ExcitationPattern(n, flipped)
        for times in grids:
            sz = quench_sz(sys, [pattern], times)[0]
            ref = _propagator_loop(sys, pattern, times)
            assert sz.shape == ref.shape
            assert np.abs(sz - ref).max() < 1e-12
        assert np.abs(sz[0] - pattern_sz(pattern)).max() < 1e-12
