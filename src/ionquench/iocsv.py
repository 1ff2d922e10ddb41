"""Deterministic CSV and JSON writers.

Numbers are written with Python's shortest round-trip float repr and
files always end lines with LF, so a fixed configuration and seed
produce byte-identical output everywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .observables import QuenchTrace


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: Path, columns: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def write_matrix_csv(path: Path, j: np.ndarray,
                     value_name: str = "J_rad_per_s") -> None:
    n = j.shape[0]
    rows = ((i + 1, k + 1, j[i, k]) for i in range(n) for k in range(n))
    write_csv(path, ("i", "j", value_name), rows)


def write_indexed_csv(path: Path, values: np.ndarray) -> None:
    write_csv(path, ("index", "value"), enumerate(np.asarray(values).ravel()))


def write_trace_csv(path: Path, trace: QuenchTrace,
                    n_samples: int | None = None) -> None:
    cols = ["t_seconds", "site", "sz"]
    if n_samples is not None:
        cols.append("n_samples")
    def rows():
        for r, t in enumerate(trace.times):
            for s in range(trace.n_sites):
                row = [t, s + 1, trace.sz[r, s]]
                if n_samples is not None:
                    row.append(n_samples)
                yield row
    write_csv(path, cols, rows())


def write_c_summary_csv(path: Path, trace: QuenchTrace,
                        n_samples: int | None = None) -> None:
    cols = ["t_seconds", "C", "C_cumulative"]
    if n_samples is not None:
        cols.append("n_samples")
    def rows():
        for r, t in enumerate(trace.times):
            row = [t, trace.c_series[r], trace.c_cumulative[r]]
            if n_samples is not None:
                row.append(n_samples)
            yield row
    write_csv(path, cols, rows())


def write_gge_csv(path: Path, sz_gge: np.ndarray) -> None:
    write_csv(path, ("site", "sz_gge"),
              ((s + 1, v) for s, v in enumerate(sz_gge)))


def write_shot_lines(path: Path, shots: np.ndarray) -> None:
    """One line of 0/1 characters per row of an (n_shots, N) bit array."""
    lines = np.empty((shots.shape[0], shots.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1] = shots + ord("0")
    lines[:, -1] = ord("\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(lines.tobytes())


def write_manifest(path: Path, manifest: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
