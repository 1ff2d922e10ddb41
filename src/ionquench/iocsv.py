"""Deterministic CSV and JSON writers.

Numbers are written with Python's shortest round-trip float repr and
files always end lines with LF, so a fixed configuration and seed
produce byte-identical output everywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .observables import QuenchTrace


def _write_lines(path: Path, header: Sequence[str], lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + ",".join(header) + "\n")
        fh.writelines(lines)


def write_csv(path: Path, header: Sequence[str],
              columns: Sequence[np.ndarray]) -> None:
    """One row per index of equally long int or float columns, written
    as the repr of their tolist() values (the shortest round trip)."""
    text = [map(repr, np.asarray(c).ravel().tolist()) for c in columns]
    _write_lines(path, header,
                 (",".join(row) + "\n" for row in zip(*text, strict=True)))


def write_matrix_csv(path: Path, j: np.ndarray) -> None:
    i, k = np.indices(j.shape) + 1
    write_csv(path, ("i", "j", "J_rad_per_s"), (i, k, j))


def write_indexed_csv(path: Path, values: np.ndarray) -> None:
    write_csv(path, ("index", "value"), (np.arange(np.size(values)), values))


def write_trace_csv(path: Path, trace: QuenchTrace,
                    n_samples: int | None = None) -> None:
    """One row per (time, site), time-major, in the bytes write_csv gives
    the repeated times, tiled sites and sz; each time, each ``,site,``
    prefix and the constant n_samples suffix are formatted once."""
    header = ["t_seconds", "site", "sz"]
    tail = "\n"
    if n_samples is not None:
        header.append("n_samples")
        tail = f",{np.asarray(n_samples).tolist()!r}\n"
    sites = [f",{i}," for i in range(1, trace.n_sites + 1)]
    _write_lines(path, header,
                 ("".join([t + s + v + tail
                           for s, v in zip(sites, map(repr, row))])
                  for t, row in zip(map(repr, trace.times.tolist()),
                                    trace.sz.tolist(), strict=True)))


def write_gaps_csv(path: Path,
                   blocks: Sequence[tuple[float, np.ndarray, np.ndarray]]
                   ) -> None:
    """One row per (alpha, gap, weight), a block of rows per
    (alpha, gaps, weights) of blocks, in the bytes write_csv gives those
    columns; each block's alpha is formatted once."""
    def lines():
        for alpha, gaps, weights in blocks:
            a = f"{float(alpha)!r},"
            yield "".join([a + g + "," + w + "\n" for g, w in
                           zip(map(repr, gaps.tolist()),
                               map(repr, weights.tolist()), strict=True)])

    _write_lines(path, ("alpha", "gap_over_jmax", "weight"), lines())


def write_c_summary_csv(path: Path, trace: QuenchTrace,
                        n_samples: int | None = None) -> None:
    header = ["t_seconds", "C", "C_cumulative"]
    cols = [trace.times, trace.c_series, trace.c_cumulative]
    if n_samples is not None:
        header.append("n_samples")
        cols.append(np.full(trace.times.size, n_samples))
    write_csv(path, header, cols)


def write_gge_csv(path: Path, sz_gge: np.ndarray) -> None:
    write_csv(path, ("site", "sz_gge"),
              (np.arange(1, len(sz_gge) + 1), sz_gge))


def write_shot_lines(path: Path, shots: np.ndarray) -> None:
    """One line of 0/1 characters per row of an (n_shots, N) bit array.

    The character matrix is filled in place and written as it stands,
    without a bytes copy."""
    lines = np.empty((shots.shape[0], shots.shape[1] + 1), dtype=np.uint8)
    np.add(shots, ord("0"), out=lines[:, :-1])
    lines[:, -1] = ord("\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(lines)


def write_manifest(path: Path, manifest: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
