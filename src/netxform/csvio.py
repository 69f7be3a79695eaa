"""CSV emission of schedules and trajectories, and parsing of schedules and initial states.

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
from .graph import InputError, _vertex_count, numeric_array


def write_columns_csv(path, grid, columns: dict) -> None:
    """Every table written here: column t holds the grid, then one column per named
    1-D array, under a header of the names. Neither a name the program writes nor a
    float's repr needs quoting, so cells are joined directly, to csv.writer's bytes."""
    table = np.asarray(np.column_stack([grid, *columns.values()]), dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *columns]) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


def write_schedule_csv(path, sched: WeightSchedule) -> None:
    """Write a schedule, one row per grid time; header lists mask-true entries
    (row-major); off-pattern entries are never serialized."""
    names = [f"w_{i}_{j}" for i, j in np.argwhere(sched.mask) + 1]
    write_columns_csv(path, sched.grid, dict(zip(names, sched.W_seq[:, sched.mask].T)))


_ROW_FORMAT = dict(delimiter=",", ndmin=2, comments=None, quotechar='"')
_COLUMN = "w_[1-9][0-9]*_[1-9][0-9]*"  # a schedule weight column, nodes 1-based


def _read_lines(path) -> list:
    """The lines of a text file; an undecodable byte reads as U+FFFD, no number."""
    try:
        with open(path, errors="replace") as fh:
            return fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_rows(lines, skip: int, what: str, per: str) -> np.ndarray:
    """np.loadtxt of the lines after the first `skip`: a row per line that is not
    blank (empty or only spaces and tabs), maybe none; double-quoted cells are
    read and `#` starts no comment. An InputError that starts with `what` names,
    by its place in `lines`, a line that does not hold a number per cell (a `per`)
    of the first line that is not blank."""
    rows = [(k, line) for k, line in enumerate(lines[skip:], skip + 1) if line.strip()]
    first = next((line for line in lines if line.strip()), " ")  # none: one empty cell
    width = np.loadtxt([first], dtype=str, max_rows=1, **_ROW_FORMAT).shape[1]  # quotes respected
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no rows: each caller reports that
            data = np.loadtxt([line for _, line in rows], **_ROW_FORMAT)
        if len(data) and data.shape[1] != width:
            raise ValueError("every row is of another width")  # the search names row 1
        return data
    except ValueError as exc:  # a cell that is no number, a row of another width
        for k, line in rows:
            try:  # after a row of `width` zeros, which a row of another width may not follow
                np.loadtxt([",".join(["0"] * width), line], **_ROW_FORMAT)
            except ValueError:  # that, or a cell that is no number
                raise InputError(f"{what}: line {k} must hold {width} "
                                 f"number{'s' * (width > 1)}, one per {per}") from exc
        raise InputError(f"{what}: {exc}") from exc


def read_schedule_csv(path, n: int | None = None) -> WeightSchedule:
    """Parse a schedule file: a header that starts with a `t` column, then rows
    (_read_rows), at least one, of a finite number per header column. The header
    gives the sparsity mask, at least n nodes wide (a node it never names holds
    zero weight), and WeightSchedule decides which times are joins."""
    lines = _read_lines(path)
    header = lines[0].rstrip("\n").split(",") if lines else [""]
    if header[0] != "t":
        raise InputError(f"{path}: expected a schedule header starting with 't'")
    data = _read_rows(lines, 1, str(path), "header column")
    if not len(data):
        raise InputError(f"{path}: no schedule rows")
    data = numeric_array(data, str(path), (-1, len(header)))
    names = header[1:]
    if not names:
        raise InputError(f"{path}: header has no w_i_j columns")
    # no node number has a leading zero, so two names of one (i, j) are equal
    # strings, and one match and one set check the whole header
    joined = ",".join(names)
    if not re.fullmatch(f"{_COLUMN}(?:,{_COLUMN})*", joined) or len(set(names)) < len(names):
        seen = set()  # only to name the first offender, in header order
        for name in names:
            if not re.fullmatch(_COLUMN, name):
                raise InputError(f"{path}: bad schedule column {name!r}")
            if name in seen:
                raise InputError(f"{path}: repeated schedule column {name!r}")
            seen.add(name)
    ij = np.fromstring(joined[2:].replace(",w_", "_"), dtype=np.int64, sep="_") - 1
    try:
        n = _vertex_count(max(n or 0, int(ij.max()) + 1), "schedule nodes")
        i, j = ij.reshape(-1, 2).T
        msk = np.zeros((n, n), dtype=bool)
        msk[i, j] = True
        W_seq = np.zeros((len(data), n, n))
        W_seq[:, i, j] = data[:, 1:]
        return WeightSchedule(grid=data[:, 0].copy(), W_seq=W_seq, mask=msk)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_initial_state(n: int, what: str, text: str | None = None, path=None) -> np.ndarray:
    """n finite numbers in one row or one column of the line `text`, or else of the
    file at `path`, read as schedule rows are (_read_rows); errors start with `what`."""
    lines = [text] if path is None else _read_lines(path)
    xi = _read_rows(lines, 0, what, "cell of the first row")
    return numeric_array(xi.ravel() if 1 in xi.shape else xi, what, (n,))


def write_trajectory_csv(path, grid, seq, prefix: str) -> None:
    """Write a gridded vector or matrix trajectory: one column per entry, named
    <prefix>_i or <prefix>_i_j, row-major and 1-based."""
    seq = np.asarray(seq)
    names = ["_".join([prefix, *(str(i + 1) for i in ij)]) for ij in np.ndindex(seq.shape[1:])]
    write_columns_csv(path, grid, dict(zip(names, seq.reshape(len(seq), -1).T)))
