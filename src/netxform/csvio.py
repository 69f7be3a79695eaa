"""CSV emission of schedules and trajectories, and round-trip parsing of schedules.

All numbers are written with shortest round-trip decimal formatting, so a
re-parsed file reproduces the exact floats that were written. A schedule
file holds one schedule, whose repeated times are its joins (waypoint
solves produce weights that jump there).
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .dynamics import WeightSchedule
from .graph import InputError, numeric_array


def _write_table(path, header, table) -> None:
    """Write a header row, then one row of numbers per row of the 2-D table.
    Neither a header name the program writes nor a float's repr needs
    quoting, so the cells are joined directly, to the bytes csv.writer gives."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in np.asarray(table, dtype=float).tolist())


def write_schedule_csv(path, sched: WeightSchedule) -> None:
    """Write a schedule, one row per grid time; header lists mask-true entries
    (row-major); off-pattern entries are never serialized."""
    _write_table(path, ["t"] + [f"w_{i}_{j}" for i, j in np.argwhere(sched.mask) + 1],
                 np.column_stack([sched.grid, sched.W_seq[:, sched.mask]]))


_ROW_FORMAT = dict(delimiter=",", ndmin=2, comments=None, quotechar='"')


def _bad_line(path):
    """Name the first line of a schedule file that np.loadtxt cannot read as one
    number per header column (an undecodable byte is no number), or None."""
    with open(path, errors="replace") as fh:
        width = len(fh.readline().split(","))
        for k, line in enumerate(fh, 2):
            try:  # after a row of `width` zeros, which a row of another width may not follow
                np.loadtxt([",".join(["0"] * width), line], **_ROW_FORMAT)
            except ValueError:  # that, or a cell that is no number
                return f"line {k} must hold {width} numbers, one per header column"


def read_schedule_csv(path) -> WeightSchedule:
    """Parse a schedule file: a header that starts with a `t` column, then at
    least one row of one finite number per header column. Blank lines are
    skipped and double-quoted cells are read; `#` starts no comment. The
    sparsity mask is reconstructed from the header, and WeightSchedule decides
    which times are joins."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body is reported below
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, **_ROW_FORMAT) if header[0] == "t" else None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # an undecodable byte, a cell that is no number, a ragged row
        raise InputError(f"{path}: {_bad_line(path) or exc}") from exc
    if data is None:
        raise InputError(f"{path}: expected a schedule header starting with 't'")
    if not len(data):
        raise InputError(f"{path}: no schedule rows")
    data = numeric_array(data, str(path), (-1, len(header)))
    pairs = {}  # (i, j) -> None, in header order
    for name in header[1:]:
        m = re.fullmatch(r"w_([1-9][0-9]*)_([1-9][0-9]*)", name)
        if m is None:
            raise InputError(f"{path}: bad schedule column {name!r}")
        pair = (int(m[1]) - 1, int(m[2]) - 1)
        if pair in pairs:
            raise InputError(f"{path}: repeated schedule column {name!r}")
        pairs[pair] = None
    if not pairs:
        raise InputError(f"{path}: header has no w_i_j columns")
    n = max(max(p) for p in pairs) + 1
    idx = tuple(np.array(list(pairs)).T)
    msk = np.zeros((n, n), dtype=bool)
    msk[idx] = True
    W_seq = np.zeros((len(data), n, n))
    W_seq[:, idx[0], idx[1]] = data[:, 1:]
    try:
        return WeightSchedule(grid=data[:, 0].copy(), W_seq=W_seq, mask=msk)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_matrix_trajectory_csv(path, grid, M_seq, prefix: str = "X") -> None:
    """Write a gridded matrix trajectory: header t,<prefix>_1_1,...,row-major."""
    M_seq = np.asarray(M_seq)
    n = M_seq.shape[1]
    _write_table(path, ["t"] + [f"{prefix}_{i}_{j}" for i in range(1, n + 1)
                                for j in range(1, n + 1)],
                 np.column_stack([grid, M_seq.reshape(len(M_seq), n * n)]))


def write_vector_trajectory_csv(path, grid, xs) -> None:
    """Node-state trajectory: header t,x_1,...,x_n."""
    xs = np.asarray(xs)
    _write_table(path, ["t"] + [f"x_{i}" for i in range(1, xs.shape[1] + 1)],
                 np.column_stack([grid, xs]))


def write_columns_csv(path, header, columns) -> None:
    """Generic aligned-column CSV (used for the scenario error curves)."""
    _write_table(path, header, np.column_stack(columns))
