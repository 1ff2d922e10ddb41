"""Initial-state patterns, quench traces and the excitation-location observable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExcitationPattern:
    """Which spins start flipped up, on a chain of ``n_ions`` spins.

    Sites are 1-based.  ``flipped`` is stored sorted and must contain
    unique in-range indices; the all-down state is the empty pattern.
    """

    n_ions: int
    flipped: tuple[int, ...]

    def __post_init__(self):
        if self.n_ions < 1:
            raise ValueError("n_ions must be >= 1")
        flips = tuple(sorted(int(i) for i in self.flipped))
        if len(set(flips)) != len(flips):
            raise ValueError(f"duplicate site in pattern {self.flipped}")
        if flips and (flips[0] < 1 or flips[-1] > self.n_ions):
            raise ValueError(
                f"pattern sites {self.flipped} outside 1..{self.n_ions}"
            )
        object.__setattr__(self, "flipped", flips)

    @property
    def n_excitations(self) -> int:
        return len(self.flipped)

    def occupations(self) -> np.ndarray:
        """0/1 vector, entry i-1 is 1 when site i starts up."""
        n = np.zeros(self.n_ions)
        for i in self.flipped:
            n[i - 1] = 1.0
        return n

    def sz(self) -> np.ndarray:
        """Initial <sigma^z_i> values, exactly +-1."""
        return 2.0 * self.occupations() - 1.0


def _location_weights(n: int) -> np.ndarray:
    """Signed distance of each site from the chain center, in [-1, 1]."""
    if n < 2:
        raise ValueError("observable needs at least 2 sites")
    i = np.arange(1, n + 1)
    return (2.0 * i - n - 1.0) / (n - 1.0)


@dataclass(frozen=True)
class QuenchTrace:
    """Time-resolved magnetization record of one quench, or of the mean
    of its noise draws, with the observables derived from it.

    sz has shape (n_times, n_sites).  c_series is the mean excitation
    location C = sum_i [(2i - N - 1)/(N - 1)] (sz_i + 1)/2 of each row,
    in [-1, 1] and negative when the excitation sits in the left half;
    c_cumulative is its running mean over the sampled grid, and
    n_excitations is the expected total up count per time.
    """

    times: np.ndarray
    sz: np.ndarray
    c_series: np.ndarray
    c_cumulative: np.ndarray
    n_excitations: np.ndarray

    def __post_init__(self):
        for name in ("times", "sz", "c_series", "c_cumulative", "n_excitations"):
            getattr(self, name).setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.sz.shape[1]


def assemble_trace(times: np.ndarray, sz: np.ndarray) -> QuenchTrace:
    """Build a QuenchTrace from a (n_times, n_sites) magnetization array."""
    times = np.ascontiguousarray(times, dtype=float)
    sz = np.ascontiguousarray(sz, dtype=float)
    if sz.ndim != 2 or times.ndim != 1 or sz.shape[0] != times.shape[0]:
        raise ValueError("sz must be (n_times, n_sites) matching times")
    p_up = (sz + 1.0) / 2.0
    c = p_up @ _location_weights(sz.shape[1])
    c_cum = np.cumsum(c) / np.arange(1, len(c) + 1)
    n_exc = p_up.sum(axis=1)
    return QuenchTrace(times, sz, c, c_cum, n_exc)
