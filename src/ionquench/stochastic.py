"""Experimental imperfections: coupling noise, preparation and detection errors.

Every random draw comes from a counter-based child generator keyed on
(seed, stream, index), so a draw's value depends only on the seed and
its index, never on how the draws are grouped for evaluation.

The shot emulation is a stream: shot_blocks draws the preparations and
runs the dynamics of the distinct ones, then reads the shots out a
block at a time, and ShotCounts tallies the post-selection counts as
the blocks pass, so a caller can count and write the shots without
holding them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import EmptySelectionError
from .observables import ExcitationPattern

# stream ids for independent random substreams under one seed
_STREAM_NOISE = 0
_STREAM_PREP = 1
_STREAM_SHOTS = 2
_STREAM_DETECT = 3

_READOUT_CHUNK = 2**15    # float draws per block of the shot readout
_CODE_BITS = 63           # columns per int64 word of a preparation code


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
        if not 0.0 <= self.j_relative_sigma < np.inf:
            raise ValueError("j_relative_sigma must be finite and >= 0")
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


def _uniform_blocks(rng: np.random.Generator, n_rows: int, width: int,
                    block: int) -> Iterator[np.ndarray]:
    """Uniform draws of an (n_rows, width) array, block rows at a time,
    each block filled into one reused buffer.  A generator fills its
    output in C order, so the blocks take the same values in the same
    order as one draw of the whole shape."""
    buf = np.empty((min(block, n_rows), width))
    for start in range(0, n_rows, block):
        yield rng.random(out=buf[:min(block, n_rows - start)])


def _kept_blocks(model: NoiseModel, n_shots: int, n_flips: int,
                 block: int) -> Iterator[np.ndarray]:
    """Which intended flips each shot keeps, as (rows, n_flips) bool
    blocks in shot order: every flip succeeds with prep_flip_fidelity,
    drawn from stream PREP shot by shot, flip by flip within a shot."""
    for draw in _uniform_blocks(model.rng(_STREAM_PREP), n_shots, n_flips,
                                block):
        yield draw < model.prep_flip_fidelity


def _row_codes(kept: np.ndarray) -> np.ndarray:
    """Codes of the rows of a 2D bool array that sort as the rows do
    lexicographically: an int64 per row, the first column the most
    significant bit.  A row wider than _CODE_BITS columns is coded as a
    record of int64 words of _CODE_BITS columns each, which numpy sorts
    and searches field by field."""
    n, width = kept.shape
    words = np.zeros((n, max(1, -(-width // _CODE_BITS))), dtype=np.int64)
    for w, start in enumerate(range(0, width, _CODE_BITS)):
        cols = kept[:, start:start + _CODE_BITS]
        weights = 1 << np.arange(cols.shape[1] - 1, -1, -1, dtype=np.int64)
        words[:, w] = cols @ weights
    if words.shape[1] == 1:
        return words[:, 0]
    record = np.dtype([(f"w{w}", np.int64) for w in range(words.shape[1])])
    return words.view(record)[:, 0]


def _distinct_rows(blocks: Iterable[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a stream of 2D bool blocks of one width, in
    lexicographic order (as np.unique(axis=0) orders them), and their
    sorted _row_codes.  Memory holds one block and the distinct rows
    of each block, never the whole stream."""
    codes, rows = [], []
    for kept in blocks:
        block_codes, first = np.unique(_row_codes(kept), return_index=True)
        codes.append(block_codes)
        rows.append(kept[first])
    codes, first = np.unique(np.concatenate(codes), return_index=True)
    return np.concatenate(rows)[first], codes


def _readout(p: np.ndarray, codes: np.ndarray, model: NoiseModel,
             n_shots: int, n_flips: int) -> Iterator[np.ndarray]:
    """Fluorescence readout of independent site outcomes, a block of
    shots at a time.

    Shot j keeps the flips of its own preparation draw (_kept_blocks,
    drawn again here block by block) and reads out the row of p, the
    up probabilities, whose code in the sorted codes is that of its
    kept flips.  Each site reads up with its probability, drawn from
    stream SHOTS; each bit is then reported wrong with the detection
    error probability, drawn from stream DETECT.  Every stream is drawn
    in blocks of about _READOUT_CHUNK floats of the bits, so the values
    are those of one whole-array draw.  Yields each block's bits as a
    new (rows, N) uint8 array, in shot order.
    """
    n_sites = p.shape[1]
    block = max(1, _READOUT_CHUNK // n_sites)
    kept = _kept_blocks(model, n_shots, n_flips, block)
    shots = _uniform_blocks(model.rng(_STREAM_SHOTS), n_shots, n_sites,
                            block)
    detect = model.rng(_STREAM_DETECT) if model.detection_error > 0 else None
    for flips, draw in zip(kept, shots):
        rows = np.searchsorted(codes, _row_codes(flips))
        bits = (draw < p[rows]).view(np.uint8)
        if detect is not None:
            bits ^= detect.random(out=draw) < model.detection_error
        yield bits


@dataclass(frozen=True)
class PostselectionResult:
    """Sector-filtered estimates with binomial error bars."""

    acceptance_fraction: float
    n_accepted: int
    p_up: np.ndarray
    p_err: np.ndarray
    sz: np.ndarray
    sz_err: np.ndarray


class ShotCounts:
    """Post-selection on k detected excitations, counted block by block.

    add(bits) counts one (rows, N) 0/1 block: its shots, the accepted
    ones, whose detected excitation count equals k, and their per-site
    up counts, as exact integers with no float copy of the shots.
    tally(blocks) counts each block of a stream as it passes it on, so
    the shots can go on to their writer; result() gives the estimates
    over every block counted.  The blocks are read, never modified.
    """

    def __init__(self, k: int):
        self.k = k
        self.n_shots = 0
        self.n_accepted = 0
        self.ups = 0   # per-site int64 up counts after the first block

    def add(self, bits: np.ndarray) -> None:
        mask = bits.sum(axis=1) == self.k
        self.n_shots += len(bits)
        self.n_accepted += int(mask.sum())
        self.ups = self.ups + bits.sum(axis=0, where=mask[:, None],
                                       dtype=np.int64)

    def tally(self, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        for bits in blocks:
            self.add(bits)
            yield bits

    def result(self) -> PostselectionResult:
        if self.n_shots == 0:
            raise ValueError("no shots given")
        if self.n_accepted == 0:
            raise EmptySelectionError(
                f"post-selection on {self.k} excitations rejected all "
                f"{self.n_shots} shots", acceptance_fraction=0.0
            )
        p = self.ups / self.n_accepted
        perr = np.sqrt(p * (1.0 - p) / self.n_accepted)
        return PostselectionResult(
            acceptance_fraction=self.n_accepted / self.n_shots,
            n_accepted=self.n_accepted, p_up=p, p_err=perr,
            sz=2.0 * p - 1.0, sz_err=2.0 * perr,
        )


def shot_blocks(pattern: ExcitationPattern,
                run_to_sz: Callable[[list[ExcitationPattern]], np.ndarray],
                model: NoiseModel, n_shots: int) -> Iterator[np.ndarray]:
    """Full measurement emulation for one nominal preparation, as a
    stream of blocks of shots.

    Each shot first suffers preparation errors: every intended flip
    succeeds independently with prep_flip_fidelity, and a failed flip
    leaves that spin down.  The dynamics of the pattern that was kept
    then fix the site marginals that the detector reads out.
    run_to_sz gets every distinct kept non-empty pattern at once, in
    the lexicographic order of the kept rows (first intended flip
    first), and returns their sz as a (P, N) array, one row per pattern
    in that order; each row is keyed by an int64 code of its flips
    (_row_codes), which sorts in the order np.unique(axis=0) gives.
    The empty pattern reads all spins down and is never passed on; with
    no other pattern kept, run_to_sz is not called.

    The preparation draws, the dynamics and the check of their
    marginals run in this call, so their errors raise here; the
    iterator it returns then draws the preparations again and reads out
    one block of shots at a time (_readout), each a new (rows, N) uint8
    array, in shot order.  Memory holds one block of shots and the
    distinct preparations, never an (n_shots, N) array.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    sites = np.array(pattern.flipped, dtype=int)
    block = max(1, _READOUT_CHUNK // max(sites.size, 1))
    rows, codes = _distinct_rows(_kept_blocks(model, n_shots, sites.size,
                                              block))
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
    # NaN fails both comparisons, so non-finite marginals raise too
    if not (sz.min() >= -1.0 - 1e-9 and sz.max() <= 1.0 + 1e-9):
        raise ValueError("sz marginals must be finite and lie in [-1, 1]")
    return _readout(np.clip((sz + 1.0) / 2.0, 0.0, 1.0), codes, model,
                    n_shots, sites.size)
