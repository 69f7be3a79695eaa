"""CSV emission and round-trip parsing for schedules and trajectories.

All numbers are written with shortest round-trip decimal formatting, so a
re-parsed file reproduces the exact floats that were written. A schedule
file may contain several segments (waypoint solves produce weights that
jump at segment joins); a repeated time value marks a segment boundary.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

from .dynamics import DynamicsError, WeightSchedule
from .graph import SparsityMask


class CsvFormatError(ValueError):
    """Header or row does not match the expected layout."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_rows(path) -> list:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc


def write_schedule_csv(path, schedules) -> None:
    """Write one or more schedule segments; header lists mask-true entries
    (row-major); off-pattern entries are never serialized."""
    schedules = list(schedules)
    pairs = schedules[0].mask.index_pairs()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"w_{i}_{j}" for (i, j) in pairs])
        for sched in schedules:
            for k, t in enumerate(sched.grid):
                row = [_fmt(t)] + [_fmt(sched.W_seq[k, i - 1, j - 1]) for (i, j) in pairs]
                w.writerow(row)


def read_schedule_csv(path) -> list:
    """Parse a schedule file back into its segments.

    The sparsity mask is reconstructed from the header; a non-increasing time
    step between consecutive rows starts a new segment. Every row must hold
    one finite number per header column.
    """
    rows = _read_rows(path)
    if not rows or rows[0][:1] != ["t"]:
        raise CsvFormatError(f"{path}: expected a 't,w_i_j,...' header")
    pairs = []
    for name in rows[0][1:]:
        m = re.fullmatch(r"w_([1-9][0-9]*)_([1-9][0-9]*)", name)
        if m is None:
            raise CsvFormatError(f"{path}: bad schedule column {name!r}")
        pairs.append((int(m[1]) - 1, int(m[2]) - 1))
    if not pairs:
        raise CsvFormatError(f"{path}: header has no w_i_j columns")
    n = max(max(p) for p in pairs) + 1
    idx = tuple(np.array(pairs).T)
    entries = np.zeros((n, n), dtype=bool)
    entries[idx] = True
    msk = SparsityMask(entries=entries)

    segments = []
    times, mats = [], []

    def flush():
        try:
            segments.append(WeightSchedule(grid=np.array(times), W_seq=np.array(mats), mask=msk))
        except DynamicsError as exc:
            raise CsvFormatError(f"{path}: {exc}") from exc
        times.clear()
        mats.clear()

    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(rows[0]):
            raise CsvFormatError(f"{path}:{line}: {len(row)} cells, header has {len(rows[0])}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{line}: {exc}") from exc
        if not all(map(math.isfinite, vals)):
            raise CsvFormatError(f"{path}:{line}: non-finite value")
        if times and vals[0] <= times[-1]:
            flush()
        W = np.zeros((n, n))
        W[idx] = vals[1:]
        times.append(vals[0])
        mats.append(W)
    if not times:
        raise CsvFormatError(f"{path}: no schedule rows")
    flush()
    return segments


def write_matrix_trajectory_csv(path, grid, M_seq, prefix: str = "X") -> None:
    """Write a gridded matrix trajectory: header t,<prefix>_1_1,...,row-major."""
    M_seq = np.asarray(M_seq)
    n = M_seq.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"{prefix}_{i}_{j}" for i in range(1, n + 1)
                            for j in range(1, n + 1)])
        for k, t in enumerate(grid):
            w.writerow([_fmt(t)] + [_fmt(v) for v in M_seq[k].ravel()])


def read_matrix_trajectory_csv(path):
    """Inverse of write_matrix_trajectory_csv; returns (grid, M_seq)."""
    rows = _read_rows(path)
    if not rows or rows[0][0] != "t":
        raise CsvFormatError(f"{path}: expected a matrix trajectory header")
    ncols = len(rows[0]) - 1
    n = int(round(ncols ** 0.5))
    if n * n != ncols:
        raise CsvFormatError(f"{path}: {ncols} value columns is not a square count")
    grid, mats = [], []
    for row in rows[1:]:
        if not row:
            continue
        grid.append(float(row[0]))
        mats.append(np.array([float(v) for v in row[1:]]).reshape(n, n))
    return np.array(grid), np.array(mats)


def write_vector_trajectory_csv(path, grid, xs, prefix: str = "x") -> None:
    """Node-state trajectory: header t,x_1,...,x_n."""
    xs = np.asarray(xs)
    n = xs.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"{prefix}_{i}" for i in range(1, n + 1)])
        for k, t in enumerate(grid):
            w.writerow([_fmt(t)] + [_fmt(v) for v in xs[k]])


def read_vector_trajectory_csv(path):
    rows = _read_rows(path)
    if not rows or rows[0][0] != "t":
        raise CsvFormatError(f"{path}: expected a vector trajectory header")
    grid = [float(r[0]) for r in rows[1:] if r]
    xs = [[float(v) for v in r[1:]] for r in rows[1:] if r]
    return np.array(grid), np.array(xs)


def write_columns_csv(path, header, columns) -> None:
    """Generic aligned-column CSV (used for the scenario error curves)."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(columns[0].size):
            w.writerow([_fmt(c[k]) for c in columns])
