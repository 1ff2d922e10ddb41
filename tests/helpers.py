"""Shared oracles for the test suite.

Everything here is an independent reference implementation: dense
Pauli-product Hamiltonians, a block as one dense matrix, a
truncated-Fock boson propagator, the spin-wave Heisenberg propagator at
one time, closed-form cosine phonon modes, the location observable C of
one magnetization row and the excitation number of a trace, initial and
mirrored patterns, the couplings s J of a noise draw, the coupling
eigenvalue of each phonon mode, Poisson-binomial conditionals, a
whole-array shot readout and a noise average over rebuilt models, all
built from first principles so the package code can be checked against
them.  ``evolve``, one exact quench as a trace, is the package's quench
at the single draw s = 1.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.constants import hbar

from ionquench.coupling import CouplingMatrix
from ionquench.exact import _chebyshev_order, evolve_draws
from ionquench.observables import ExcitationPattern, assemble_trace
from ionquench.stochastic import ShotCounts, noise_scales

TWO_PI = 2.0 * math.pi
JMAX = TWO_PI * 600.0     # rad/s, default strongest coupling
B_FIELD = TWO_PI * 10e3   # rad/s, default transverse field

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# basis index 1 of each factor is spin up, matching the bitmask basis
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])


def site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-site operator; site is 1-based, bit site-1 fastest."""
    out = np.eye(1)
    for k in range(n, 0, -1):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def dense_ising_oracle(j_script: np.ndarray, b: float) -> np.ndarray:
    """sum_{i<j} J_ij sx_i sx_j + B sum_i sz_i as explicit Pauli products."""
    n = j_script.shape[0]
    h = np.zeros((2**n, 2**n))
    for i in range(1, n + 1):
        h += b * site_operator(SZ, i, n)
        for j in range(i + 1, n + 1):
            if j_script[i - 1, j - 1] != 0.0:
                h += j_script[i - 1, j - 1] * (
                    site_operator(SX, i, n) @ site_operator(SX, j, n)
                )
    return h


def dense_xy_oracle(j_script: np.ndarray, b: float) -> np.ndarray:
    """Flip-flop truncation of the same chain, still on all 2^N states."""
    n = j_script.shape[0]
    sp = (SX + 1.0j * SY) / 2.0
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(1, n + 1):
        h += b * site_operator(SZ, i, n)
        for j in range(i + 1, n + 1):
            hop = site_operator(sp, i, n) @ site_operator(sp, j, n).conj().T
            h += j_script[i - 1, j - 1] * (hop + hop.conj().T)
    return h


def dense_sz_dynamics(h: np.ndarray, psi0: np.ndarray, times, n: int
                      ) -> np.ndarray:
    """<sigma^z_i(t)> for each site by brute-force eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    amps = evecs.conj().T @ psi0
    zdiag = np.array([np.diag(site_operator(SZ, i, n)) for i in range(1, n + 1)])
    out = np.empty((len(times), n))
    for row, t in enumerate(times):
        psi = evecs @ (np.exp(-1j * evals * t) * amps)
        out[row] = zdiag @ (np.abs(psi) ** 2)
    return out


def direct_trig_dense_sz(block, idx0s, times, spectra) -> np.ndarray:
    """sz (S, P, T, N) of the block's basis states idx0s under each stacked
    half spectrum, with cos and sin taken of every phase t E: the dense
    readout's arithmetic, shape for shape, with no step along the grid
    and no time chunks."""
    nf = block.halves[0].size
    amps = []
    for coords, (evals, evecs) in zip(block.half_coords(idx0s), spectra):
        phase = np.asarray(times)[:, None] * evals[:, None, None, :]
        c = (coords @ evecs)[:, :, None, :]
        back = evecs[:, None].transpose(0, 1, 3, 2)
        amps.append(((np.cos(phase) * c) @ back, (np.sin(phase) * c) @ back))
    (e_re, e_im), (o_re, o_im) = amps
    z_even, z_pair, z_diff = block.half_z
    return ((e_re**2 + e_im**2) @ z_even + (o_re**2 + o_im**2) @ z_pair
            + (e_re[..., nf:] * o_re + e_im[..., nf:] * o_im) @ z_diff)


def walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """W v for the Walsh-Hadamard matrix W, entries (-1)^popcount(x & b),
    by the radix-2 butterfly over one bit at a time."""
    out = np.array(v, dtype=float)
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        a, b = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = a + b
        pairs[:, 1] = a - b
        h *= 2
    return out


def hadamard_form_product(op, v: np.ndarray) -> np.ndarray:
    """H v = dz v + W (dx W v) / 2^(N-1) of a parity block op, with W
    applied by the butterfly."""
    return op.dz * v + walsh_hadamard(op.dx * walsh_hadamard(v)) / op.dim


def complex_table_chebyshev_states(matvec, dim: int, bounds, idx0: int,
                                   times) -> np.ndarray:
    """Rows exp(-i H t) e_idx0 up to the phase e^{-i c t}, from the whole
    complex coefficient table: the FFT of exp(-i z cos theta) at 2 * order
    samples gives (2 - delta_k0) (-i)^k J_k(z), and each Chebyshev vector
    of (H - c) / R, with H v = matvec(v) on dim states and c and R the
    centre and half-width of bounds, adds its coefficient times itself to
    every row.  The order is the package's _chebyshev_order."""
    lo, hi = bounds
    centre, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    z = half * np.asarray(times, dtype=float)
    order = _chebyshev_order(float(np.abs(z).max()))
    n_theta = 2 * order
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    coef = np.fft.fft(np.exp(-1j * np.outer(z, np.cos(theta))),
                      axis=1)[:, :order] / n_theta
    coef[:, 1:] *= 2.0
    prev, v = None, np.zeros(dim)
    v[idx0] = 1.0
    psi = coef[:, 0, None] * v
    for k in range(1, order):
        step = (matvec(v) - centre * v) / half
        prev, v = v, (step if k == 1 else 2.0 * step - prev)
        psi += coef[:, k, None] * v
    return psi


def one_shot_chebyshev_coefficients(z, order: int):
    """The even and odd Chebyshev coefficient tables of exp(-i z x) (see
    exact._chebyshev_coefficients), with the phase, trig and FFT tables
    of every z formed at once."""
    n_theta = 2 * order
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phase = np.outer(z, np.cos(theta))
    even = np.fft.rfft(np.cos(phase), axis=1)[:, 0:order:2].real / n_theta
    odd = np.fft.rfft(np.sin(phase), axis=1)[:, 1:order:2].real / n_theta
    even[:, 1:] *= 2.0
    odd *= -2.0
    return even, odd


def dense_block(op) -> np.ndarray:
    """A block operator as one dense matrix: its field diagonal and its
    coupling entries (op.entries()), each added into zeros."""
    h = np.zeros((op.dim, op.dim))
    h[np.arange(op.dim), np.arange(op.dim)] += op.dz
    rows, cols, values = op.entries()
    h[rows, cols] += values
    return h


def block_product(op, v: np.ndarray) -> np.ndarray:
    """H v of a real v by the block's own product at centre 0 and
    half-width 1."""
    out = np.empty(op.dim)
    op.product(0.0, 1.0)(v, out)
    return out


def product_state(flipped, n: int) -> np.ndarray:
    psi = np.zeros(2**n)
    psi[sum(1 << (i - 1) for i in flipped)] = 1.0
    return psi


def energy_expectation(h, psi: np.ndarray) -> float:
    """<psi|H|psi> of a state psi on all 2^N bitmasks that lies in rep
    h, one block at a time."""
    total = 0.0
    for key in (0, 1) if h.k_excitations is None else (0,):
        block = h.block(key)
        part = psi[block.states]
        h_part = (block_product(block.op, part.real)
                  + 1j * block_product(block.op, part.imag))
        total += np.vdot(part, h_part)
    return float(np.real(total))


def excitation_number(trace) -> np.ndarray:
    """The expected total up count sum_i (sz_i + 1) / 2 at each time."""
    return ((trace.sz + 1.0) / 2.0).sum(axis=1)


def excitation_drift(trace) -> float:
    """Largest excursion of the total excitation number from its start."""
    n = excitation_number(trace)
    return float(np.abs(n - n[0]).max())


def evolve(h, pattern, times):
    """The trace of one quench on rep h: exact.evolve_draws at the single
    draw s = 1.  h.dense says whether it ran on the dense spectrum."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return assemble_trace(times, evolve_draws([(h, pattern)], times,
                                              [1.0])[0][0])


def noise_average(run, times, model, n_samples: int) -> list:
    """Traces averaged over the noise draws of noise_scales.

    run(scales) yields, per draw in scale order, one sz array per
    pattern, each from a model rebuilt at that draw's scale.  sz is
    summed from zeros draw by draw and divided by n_samples.
    """
    sums = None
    for draw in run(noise_scales(model, n_samples)):
        if sums is None:
            sums = [np.zeros_like(sz) for sz in draw]
        for total, sz in zip(sums, draw):
            total += sz
    return [assemble_trace(times, total / n_samples) for total in sums]


# -- patterns, the location observable and phonon modes --------------------

def scaled_couplings(jm: CouplingMatrix, factor: float) -> CouplingMatrix:
    """The couplings of the noise draw J -> factor * J."""
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    return CouplingMatrix(j=jm.j * factor, j_script=jm.j_script * factor,
                          j_max=jm.j_max * factor, alpha_fit=jm.alpha_fit)


def pattern_sz(pattern: ExcitationPattern) -> np.ndarray:
    """Initial <sigma^z_i> of a pattern, exactly +-1."""
    return 2.0 * pattern.occupations() - 1.0


def mirrored(pattern: ExcitationPattern) -> ExcitationPattern:
    """The pattern reflected through the chain centre, site i to N + 1 - i."""
    n = pattern.n_ions
    return ExcitationPattern(n, tuple(n + 1 - i for i in pattern.flipped))


def observable_c(sz) -> float:
    """Mean excitation location of one magnetization row, in [-1, 1]:
    C = sum_i [(2i - N - 1)/(N - 1)] (sz_i + 1)/2, negative when the
    excitation sits in the left half."""
    sz = np.asarray(sz, dtype=float)
    n = sz.shape[-1]
    if n < 2:
        raise ValueError("observable needs at least 2 sites")
    weights = (2.0 * np.arange(1, n + 1) - n - 1.0) / (n - 1.0)
    return float(np.dot(weights, (sz + 1.0) / 2.0))


def mode_lambdas(cfg, modes) -> np.ndarray:
    """The eigenvalues of the couplings J of a trap, one per phonon mode:
    lambda_m = hbar dk^2 Omega^2 / (2 M (mu^2 - omega_m^2)), the mode
    profiles being the matching eigenvectors."""
    return (hbar * cfg.delta_k**2 * cfg.rabi**2 / (2.0 * cfg.mass)
            / (cfg.mu**2 - modes.frequencies**2))


@dataclass(frozen=True)
class PerturbativeModes:
    """Mode profiles, one per column, and their eigenvalues of K."""

    mode_matrix: np.ndarray
    kappas: np.ndarray


def perturbative_modes(n: int) -> PerturbativeModes:
    """Closed-form cosine-wave modes of the uniform chain.

    Valid to leading order in the dipolar coupling: mode m has profile
    V_{i,m} = sqrt(2/N) cos[(m pi / N)(i - 1/2)] (sqrt(1/N) for m = 0)
    and eigenvalue
    kappa_m = sum_{r=1}^{floor(N/2)} (2 - 2 cos(m r pi / N)) / r^3.
    """
    if n < 2:
        raise ValueError("need at least 2 ions")
    i = np.arange(1, n + 1)[:, None]
    m = np.arange(n)[None, :]
    v = np.sqrt(2.0 / n) * np.cos(m * np.pi / n * (i - 0.5))
    v[:, 0] = np.sqrt(1.0 / n)
    r = np.arange(1, n // 2 + 1)[:, None]
    kappas = ((2.0 - 2.0 * np.cos(m * r * np.pi / n)) / r**3.0).sum(axis=0)
    return PerturbativeModes(mode_matrix=v, kappas=kappas)


# -- spin-wave Heisenberg propagator -----------------------------------------

@dataclass(frozen=True)
class HeisenbergPropagator:
    """Mode-space evolution a_i(t) = sum_j u_ij a_j + (pair part via w).

    The pair block w vanishes at t = 0 and whenever every Bogoliubov
    angle is zero; u u^dag - w w^dag = 1 at all times.
    """

    u: np.ndarray
    w: np.ndarray
    time: float


def propagator(sys, t: float) -> HeisenbergPropagator:
    """The two N x N propagators of a SpinWaveSystem at time t."""
    ch2 = np.cosh(sys.thetas) ** 2
    sh2 = np.sinh(sys.thetas) ** 2
    chsh = np.cosh(sys.thetas) * np.sinh(sys.thetas)
    minus = np.exp(-1j * sys.epsilons * t)
    plus = np.exp(+1j * sys.epsilons * t)
    v = sys.modes
    u = (v * (ch2 * minus - sh2 * plus)) @ v.T
    w = (v * (chsh * (plus - minus))) @ v.T
    return HeisenbergPropagator(u=u, w=w, time=float(t))


# -- truncated-Fock boson model ---------------------------------------------

def fock_boson_hamiltonian(j_script: np.ndarray, b: float, n_max: int
                           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense H0 = sum_ij Jij [a+_i a_j + (a+_i a+_j + a_i a_j)/2] + 2B sum n_i.

    Bosons live on a per-site Fock ladder truncated at n_max; returns the
    Hamiltonian and the per-site number operators.
    """
    n = j_script.shape[0]
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    num = a.T @ a

    def embed(op, site):
        out = np.eye(1)
        for k in range(n, 0, -1):
            out = np.kron(out, op if k == site else np.eye(d))
        return out

    ops_a = [embed(a, s) for s in range(1, n + 1)]
    ops_n = [embed(num, s) for s in range(1, n + 1)]
    h = 2.0 * b * sum(ops_n)
    for i in range(n):
        for j in range(n):
            if i == j or j_script[i, j] == 0.0:
                continue
            h = h + j_script[i, j] * (ops_a[i].T @ ops_a[j])
            h = h + 0.5 * j_script[i, j] * (ops_a[i].T @ ops_a[j].T)
            h = h + 0.5 * j_script[i, j] * (ops_a[i] @ ops_a[j])
    return h, ops_n


def fock_occupation_dynamics(j_script: np.ndarray, b: float, occ0: np.ndarray,
                             times, n_max: int = 4) -> np.ndarray:
    """<n_i(t)> under the truncated-Fock H0 via scipy's expm."""
    n = len(occ0)
    d = n_max + 1
    h, ops_n = fock_boson_hamiltonian(j_script, b, n_max)
    idx = 0
    for site in range(1, n + 1):  # same fastest-bit layout as embed()
        idx += int(occ0[site - 1]) * d ** (site - 1)
    psi = np.zeros(h.shape[0], dtype=complex)
    psi[idx] = 1.0
    out = np.empty((len(times), n))
    t_prev = 0.0
    for row, t in enumerate(times):
        if t != t_prev:
            psi = sla.expm(-1j * h * (t - t_prev)) @ psi
            t_prev = t
        out[row] = [float(np.real(np.vdot(psi, op @ psi))) for op in ops_n]
    return out


# -- Poisson-binomial conditionals -------------------------------------------

def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """Distribution of the total count of independent Bernoulli(p_i)."""
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for pi in p:
        pmf[1:] = pmf[1:] * (1.0 - pi) + pmf[:-1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def conditional_marginals(p: np.ndarray, k: int) -> np.ndarray:
    """P(bit_i = 1 | total = k) for independent Bernoulli bits."""
    p = np.asarray(p, dtype=float)
    total = poisson_binomial_pmf(p)[k]
    out = np.empty(len(p))
    for i in range(len(p)):
        rest = np.delete(p, i)
        part = poisson_binomial_pmf(rest)[k - 1] if k >= 1 else 0.0
        out[i] = p[i] * part / total
    return out


def mixture_conditional_truth(components, k: int) -> np.ndarray:
    """Post-selected marginals of a mixture of independent-Bernoulli laws.

    components: iterable of (weight, p_vector); conditioning is on the
    detected count k, so each component is reweighted by its own
    probability of producing k.
    """
    num = None
    den = 0.0
    for w, p in components:
        pk = poisson_binomial_pmf(np.asarray(p))[k]
        if pk == 0.0:
            continue
        q = conditional_marginals(p, k)
        num = w * pk * q if num is None else num + w * pk * q
        den += w * pk
    return num / den


def detected_probability(p: np.ndarray, err: float) -> np.ndarray:
    """Per-site up probability after symmetric readout errors."""
    p = np.asarray(p, dtype=float)
    return p * (1.0 - err) + (1.0 - p) * err


# -- whole-array shot readout ------------------------------------------------

def whole_array_shots(pattern, run_to_sz, model, n_shots: int) -> np.ndarray:
    """Shots with every draw taken as one array: the distinct kept rows
    from np.unique(axis=0), their non-empty patterns passed to run_to_sz
    in one call, one random((n_shots, N)) per stream (1 for preparation,
    2 for outcomes, 3 for detection) and the marginals of every shot
    gathered as p[rows]."""
    sites = np.array(pattern.flipped, dtype=int)
    kept = (model.rng(1).random((n_shots, sites.size))
            < model.prep_flip_fidelity)
    rows, which = np.unique(kept, axis=0, return_inverse=True)
    sz = np.full((len(rows), pattern.n_ions), -1.0)
    run = rows.any(axis=1)
    if run.any():
        sz[run] = run_to_sz([ExcitationPattern(pattern.n_ions,
                                               tuple(sites[row]))
                             for row in rows[run]])
    p = np.clip((sz + 1.0) / 2.0, 0.0, 1.0)
    shape = (n_shots, pattern.n_ions)
    bits = (model.rng(2).random(shape) < p[which.reshape(-1)]).astype(np.uint8)
    if model.detection_error > 0:
        bits ^= model.rng(3).random(shape) < model.detection_error
    return bits


def postselected(blocks, k: int):
    """The post-selection on k detected excitations of a stream of
    (rows, N) shot blocks, counted block by block by ShotCounts.add."""
    counts = ShotCounts(k)
    for bits in blocks:
        counts.add(bits)
    return counts.result()
