"""Experimental imperfections: coupling noise, preparation and detection errors.

Every random draw comes from a counter-based child generator keyed on
(seed, stream, index), so a draw's value depends only on the seed and
its index, never on how the draws are grouped for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptySelectionError
from .observables import ExcitationPattern

# stream ids for independent random substreams under one seed
_STREAM_NOISE = 0
_STREAM_PREP = 1
_STREAM_SHOTS = 2
_STREAM_DETECT = 3

_READOUT_CHUNK = 2**15    # float draws per block of the shot readout


@dataclass(frozen=True)
class NoiseModel:
    """Noise magnitudes, defaulting to the measured hardware values.

    j_relative_sigma    std dev of the global multiplicative coupling
                        noise (fraction of J)
    prep_flip_fidelity  probability that one intended spin flip succeeds
    detection_error     probability a readout bit is reported wrong
    """

    j_relative_sigma: float = 0.12
    prep_flip_fidelity: float = 0.97
    detection_error: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.j_relative_sigma < 0:
            raise ValueError("j_relative_sigma must be non-negative")
        if not 0.0 <= self.prep_flip_fidelity <= 1.0:
            raise ValueError("prep_flip_fidelity must be a probability")
        if not 0.0 <= self.detection_error <= 1.0:
            raise ValueError("detection_error must be a probability")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def rng(self, stream: int, index: int = 0) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(stream, index))
        )


def _draw_scale(rng: np.random.Generator, sigma: float) -> float:
    """Positive global coupling scale ~ Normal(1, sigma), redrawn if <= 0."""
    while True:
        s = 1.0 + sigma * rng.standard_normal()
        if s > 0.0:
            return float(s)


def noise_scales(model: NoiseModel, n_samples: int) -> list[float]:
    """The global coupling scales of n_samples noise draws, in draw order.

    Draw i, standing for J -> s J, takes its scale from stream
    (NOISE, i), so the first k of n scales are noise_scales(model, k).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return [_draw_scale(model.rng(_STREAM_NOISE, i), model.j_relative_sigma)
            for i in range(n_samples)]


def _readout(sz: np.ndarray, rows: np.ndarray,
             model: NoiseModel) -> np.ndarray:
    """Fluorescence readout of independent site outcomes.

    sz holds rows of sigma^z marginals and shot j reads out row
    rows[j].  Each site reads up with probability (sz + 1)/2, drawn from
    stream SHOTS; each bit is then reported wrong with the detection
    error probability, drawn from stream DETECT.  The draws fill one
    reused float buffer of about _READOUT_CHUNK values, a block of
    shots at a time; a generator fills its output in C order, so the
    blocks take the same values in the same order as one draw of the
    whole (len(rows), N) shape.  Returns the bits as a (len(rows), N)
    uint8 array.
    """
    # NaN fails both comparisons, so non-finite marginals raise too
    if not (sz.min() >= -1.0 - 1e-9 and sz.max() <= 1.0 + 1e-9):
        raise ValueError("sz marginals must be finite and lie in [-1, 1]")
    p = np.clip((sz + 1.0) / 2.0, 0.0, 1.0)
    n_sites = sz.shape[1]
    bits = np.empty((rows.size, n_sites), dtype=np.uint8)
    block = max(1, _READOUT_CHUNK // n_sites)
    buf = np.empty((min(block, rows.size), n_sites))
    shots = model.rng(_STREAM_SHOTS)
    detect = model.rng(_STREAM_DETECT) if model.detection_error > 0 else None
    for start in range(0, rows.size, block):
        out = bits[start:start + block]
        draw = buf[:len(out)]
        np.less(shots.random(out=draw), p[rows[start:start + len(out)]],
                out=out)
        if detect is not None:
            out ^= detect.random(out=draw) < model.detection_error
    return bits


def _distinct_rows(kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(kept, axis=0, return_inverse=True) of a 2D bool array.

    Rows are coded as int64, the first column the most significant bit,
    so sorting the codes sorts the rows lexicographically.  A wide row
    is coded a word of columns at a time, each word's bits appended to
    the row's rank among the columns before it; a word is narrow enough
    to leave room for that rank in the int64.
    """
    n, width = kept.shape
    word = 62 - n.bit_length()
    which = np.zeros(n, dtype=np.int64)
    for start in range(0, width, word):
        cols = kept[:, start:start + word]
        weights = 1 << np.arange(cols.shape[1] - 1, -1, -1, dtype=np.int64)
        _, which = np.unique((which << cols.shape[1]) | (cols @ weights),
                             return_inverse=True)
    rows = np.empty((int(which.max()) + 1, width), dtype=bool)
    rows[which] = kept
    return rows, which


@dataclass(frozen=True)
class PostselectionResult:
    """Sector-filtered estimates with binomial error bars."""

    acceptance_fraction: float
    n_accepted: int
    p_up: np.ndarray
    p_err: np.ndarray
    sz: np.ndarray
    sz_err: np.ndarray


def postselect(shots: np.ndarray, k: int) -> PostselectionResult:
    """Keep only shots whose detected excitation count equals k.

    shots is the (n_shots, N) 0/1 array from shot_pipeline; it is read,
    never modified.
    """
    shots = np.asarray(shots)
    if len(shots) == 0:
        raise ValueError("no shots given")
    mask = shots.sum(axis=1) == k
    n_kept = int(mask.sum())
    if n_kept == 0:
        raise EmptySelectionError(
            f"post-selection on {k} excitations rejected all "
            f"{len(shots)} shots", acceptance_fraction=0.0
        )
    # an exact integer column count, so no float copy of the shots
    p = shots.sum(axis=0, where=mask[:, None], dtype=np.int64) / n_kept
    perr = np.sqrt(p * (1.0 - p) / n_kept)
    return PostselectionResult(
        acceptance_fraction=n_kept / len(shots), n_accepted=n_kept, p_up=p,
        p_err=perr, sz=2.0 * p - 1.0, sz_err=2.0 * perr,
    )


def shot_pipeline(pattern: ExcitationPattern,
                  run_to_sz: Callable[[list[ExcitationPattern]], np.ndarray],
                  model: NoiseModel, n_shots: int) -> np.ndarray:
    """Full measurement emulation for one nominal preparation.

    Each shot first suffers preparation errors: every intended flip
    succeeds independently with prep_flip_fidelity, and a failed flip
    leaves that spin down.  The dynamics of the pattern that was kept
    then fix the site marginals that the detector reads out.
    run_to_sz gets every distinct kept non-empty pattern at once, in
    the lexicographic order of the kept rows (first intended flip
    first), and returns their sz as a (P, N) array, one row per pattern
    in that order; each row is keyed by an int64 code of its flips
    (_distinct_rows), the order np.unique(axis=0) gives without sorting
    rows as records.  The empty pattern reads all spins down and is
    never passed on; with no other pattern kept, run_to_sz is not
    called.  Returns the detected bits as an (n_shots, N) uint8 array.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    sites = np.array(pattern.flipped, dtype=int)
    # row-major draws: shot by shot, site by site within a shot
    kept = (model.rng(_STREAM_PREP).random((n_shots, sites.size))
            < model.prep_flip_fidelity)
    rows, which = _distinct_rows(kept)
    sz = np.full((len(rows), pattern.n_ions), -1.0)
    run = rows.any(axis=1)
    if run.any():
        patterns = [ExcitationPattern(pattern.n_ions, tuple(sites[row]))
                    for row in rows[run]]
        part = np.asarray(run_to_sz(patterns), dtype=float)
        if part.shape != (len(patterns), pattern.n_ions):
            raise ValueError(f"dynamics returned sz of shape {part.shape} "
                             f"for {len(patterns)} patterns of "
                             f"{pattern.n_ions} ions")
        sz[run] = part
    return _readout(sz, which, model)
