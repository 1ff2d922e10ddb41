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


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """One row per element of the columns broadcast together by numpy's
    rules, in C order of the broadcast shape.  Each column is formatted
    once per element of its own shape, as the repr of its tolist() values
    (the shortest round trip), so a column of shape (T, 1) beside one of
    shape (N,) formats T values for T * N rows.  Columns that do not
    broadcast raise ValueError."""
    arrays = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    # a row's cells are its values interleaved with "," and a closing "\n"
    cells = np.full((*shape, 2 * len(arrays)), ",", dtype=object)
    cells[..., -1] = "\n"
    for k, a in enumerate(arrays):
        cells[..., 2 * k] = np.array(list(map(repr, a.ravel().tolist())),
                                     dtype=object).reshape(a.shape)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + ",".join(header) + "\n")
        fh.write("".join(cells.ravel().tolist()))


def write_matrix_csv(path: Path, j: np.ndarray) -> None:
    i = np.arange(1, len(j) + 1)
    write_csv(path, ("i", "j", "J_rad_per_s"), (i[:, None], i, j))


def write_indexed_csv(path: Path, values: np.ndarray) -> None:
    write_csv(path, ("index", "value"), (np.arange(np.size(values)), values))


def write_trace_csv(path: Path, trace: QuenchTrace,
                    n_samples: int | None = None) -> None:
    """One row per (time, site), time-major."""
    header = ["t_seconds", "site", "sz"]
    cols = [trace.times[:, None], np.arange(1, trace.n_sites + 1), trace.sz]
    if n_samples is not None:
        header.append("n_samples")
        cols.append(n_samples)
    write_csv(path, header, cols)


def write_gaps_csv(path: Path,
                   blocks: Sequence[tuple[float, np.ndarray, np.ndarray]]
                   ) -> None:
    """One row per (alpha, gap, weight), a block of rows per
    (alpha, gaps, weights) of blocks."""
    alphas, gaps, weights = zip(*blocks)
    write_csv(path, ("alpha", "gap_over_jmax", "weight"),
              (np.repeat(np.asarray(alphas, dtype=float),
                         [g.size for g in gaps]),
               np.concatenate(gaps), np.concatenate(weights)))


def write_c_summary_csv(path: Path, trace: QuenchTrace,
                        n_samples: int | None = None) -> None:
    header = ["t_seconds", "C", "C_cumulative"]
    cols = [trace.times, trace.c_series, trace.c_cumulative]
    if n_samples is not None:
        header.append("n_samples")
        cols.append(n_samples)
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
