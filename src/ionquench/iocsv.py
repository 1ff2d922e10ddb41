"""Deterministic CSV and JSON writers.

Numbers are written with Python's shortest round-trip float repr and
files always end lines with LF, so a fixed configuration and seed
produce byte-identical output everywhere.  The writers only encode:
the caller picks each file's columns and creates its directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


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
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + ",".join(header) + "\n")
        fh.write("".join(cells.ravel().tolist()))


def write_shot_lines(path: Path, blocks: Iterable[np.ndarray]) -> None:
    """One line of 0/1 characters per shot, from (rows, N) bit blocks in
    shot order.  Each block's lines are filled into one character matrix
    and written as the block comes, so memory holds one block's lines,
    never the whole file."""
    with open(path, "wb") as fh:
        for bits in blocks:
            lines = np.empty((bits.shape[0], bits.shape[1] + 1),
                             dtype=np.uint8)
            np.add(bits, ord("0"), out=lines[:, :-1])
            lines[:, -1] = ord("\n")
            fh.write(lines)


def write_manifest(path: Path, manifest: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
