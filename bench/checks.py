"""Output checks for one benchmark job.

They never look at timing.  Tolerances are the ones the test suite pins
(mirror antisymmetry 1e-8, GGE |C| 1e-9, diagonal-ensemble |C| 1e-8);
sz may exceed [-1, 1] only by the 1e-9 slack the library itself allows
when it turns sz into probabilities.  Every workload uses
inversion-symmetric couplings, so the GGE and diagonal-ensemble C vanish.
"""

from __future__ import annotations

import json
from pathlib import Path

SZ_SLACK = 1e-9
MIRROR_TOL = 1e-8
GGE_C_TOL = 1e-9
DIAG_C_TOL = 1e-8
SZ_COLUMNS = ("sz", "sz_gge", "sz_diag")
CHECKED_TABLES = ("trace_", "c_", "gge_", "diag_ensemble_", "shot_estimates")


def location_c(sz: list[float]) -> float:
    """C = sum_i [(2i - N - 1)/(N - 1)] (sz_i + 1)/2, sites 1-based."""
    n = len(sz)
    return sum((2.0 * i - n - 1.0) / (n - 1.0) * (s + 1.0) / 2.0
               for i, s in enumerate(sz, start=1))


def read_table(path: Path) -> dict[str, list[float]]:
    """Columns of a CSV written by the package (``# a,b,c`` header)."""
    lines = path.read_text().splitlines()
    names = lines[0][2:].split(",")
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    return {name: [float(x) for x in col] for name, col in zip(names, cols)}


def check_command(cmd, outdir: Path) -> list[str]:
    """Problems found in the outputs of one CLI invocation ([] if none)."""
    problems = []
    for name, n_rows in cmd.expected_rows.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        lines = path.read_text().splitlines()
        got = len(lines) if name.endswith(".txt") else len(lines) - 1
        if got != n_rows:
            problems.append(f"{name}: {got} rows, expected {n_rows}")
    try:
        listed = json.loads((outdir / "manifest.json").read_text())["outputs"]
        if sorted(listed) != sorted(cmd.expected_rows):
            problems.append(f"manifest.json lists {sorted(listed)}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"manifest.json: {exc}")
    if problems:
        return problems

    tables = {name: read_table(outdir / name) for name in cmd.expected_rows
              if name.startswith(CHECKED_TABLES)}
    for name, table in tables.items():
        for col in SZ_COLUMNS:
            if col in table and not all(-1.0 - SZ_SLACK <= v <= 1.0 + SZ_SLACK
                                        for v in table[col]):
                problems.append(f"{name}: {col} outside [-1, 1]")
        if name.startswith("gge_"):
            c = location_c(table["sz_gge"])
            if abs(c) > GGE_C_TOL:
                problems.append(f"{name}: GGE |C| = {abs(c):.3g}")
        if name.startswith("diag_ensemble_"):
            c = location_c(table["sz_diag"])
            if abs(c) > DIAG_C_TOL:
                problems.append(f"{name}: diagonal-ensemble |C| = {abs(c):.3g}")
        if cmd.memory_sign and name.startswith("c_"):
            side = 1.0 if table["C"][0] > 0 else -1.0
            if any(side * v <= 0 for v in table["C_cumulative"]):
                problems.append(f"{name}: cumulative C left its initial side")
    for a, b in cmd.mirror_pairs:
        worst = max(abs(x + y) for x, y in zip(tables[a]["C"], tables[b]["C"]))
        if worst > MIRROR_TOL:
            problems.append(f"{a} vs {b}: mirror C differs by {worst:.3g}")
    if "shots.txt" in cmd.expected_rows:
        bits = set("01")
        for line in (outdir / "shots.txt").read_text().splitlines():
            if len(line) != cmd.n_ions or not set(line) <= bits:
                problems.append("shots.txt: line is not N bits")
                break
    return problems
