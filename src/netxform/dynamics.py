"""Integration of the matrix dynamics Xdot = W(t) X under a sparse schedule.

The schedule samples W on a time grid and interpolates linearly in between.
A time that appears twice on the grid is a join, where W may jump, so W(t)
is piecewise-linear and continuous between joins. Integration is classical
fixed-step RK4; keeping it fixed-step makes runs reproducible and keeps the
state and costate integrations in the shooting solver consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import InputError, _square_matrix, numeric_array


class DynamicsError(ValueError):
    """Numerical failure: a singular system, or values that leave the float range."""


# ---------------------------------------------------------------------------
# Dense linear algebra kept in-house: an exact determinant, whatever the node
# labels, and a solve whose pivoting order is deterministic.

def _exact_det(A: np.ndarray):
    """(sign, value) of det A for the finite float matrix A: the exact sign (-1, 0 or 1)
    and the value correctly rounded, +-inf past the float range. A times its largest
    denominator, a power of two, is an integer matrix, which Bareiss elimination takes exactly."""
    ratios = [[v.as_integer_ratio() for v in row] for row in A.tolist()]
    scale = max((den for row in ratios for _, den in row), default=1)
    M = [[num * (scale // den) for num, den in row] for row in ratios]
    n, sign, prev = len(M), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return 0, 0.0
        if p != k:
            M[k], M[p], sign = M[p], M[k], -sign
        for i in range(k + 1, n):
            M[i] = [(a * M[k][k] - M[i][k] * b) // prev for a, b in zip(M[i], M[k])]
        prev = M[k][k]
    det = sign * prev  # det(scale A) = scale**n det A
    sign = 1 if det > 0 else -1
    try:
        return sign, det / scale ** n  # int true division rounds correctly
    except OverflowError:
        return sign, sign * math.inf


def determinant(A: np.ndarray) -> float:
    """det A correctly rounded (_exact_det), +-inf past the float range, nan when
    an entry is not finite; a relabelling P A P^T leaves it unchanged."""
    A = _square_matrix(A, "determinant")
    return _exact_det(A)[1] if np.all(np.isfinite(A)) else math.nan


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by partially pivoted elimination of [A | b]; raises at the first
    column whose largest remaining entry is at most tiny in magnitude."""
    A = _square_matrix(A, "solve_linear")
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise InputError("solve_linear: dimension mismatch")
    tiny = n * np.finfo(float).eps * max(np.abs(A).max(), 1.0)
    M = np.hstack([A, b.reshape(n, -1)])
    for c in range(n):
        p = c + int(np.argmax(np.abs(M[c:, c])))
        if abs(M[p, c]) <= tiny:
            raise DynamicsError("solve_linear: matrix singular to working precision")
        if p != c:
            M[[c, p]] = M[[p, c]]
        M[c + 1:, c + 1:] -= np.outer(M[c + 1:, c] / M[c, c], M[c, c + 1:])
    A, B = M[:, :n], M[:, n:]
    X = np.zeros_like(B)
    for k in range(n - 1, -1, -1):
        X[k] = (B[k] - A[k, k + 1:] @ X[k + 1:]) / A[k, k]
    return X[:, 0] if b.ndim == 1 else X


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a truncated series.

    The input is scaled by 2**-s, the least s >= 0 that brings its norm to at
    most 1/2, the series is summed to relative machine precision, and the
    result squared s times; squarings that leave the float range raise.
    """
    A = _square_matrix(A, "expm")
    if not np.all(np.isfinite(A)):
        raise DynamicsError("expm: non-finite input")
    n = A.shape[0]
    norm = np.abs(A).sum(axis=1).max() if n else 0.0
    m, e = math.frexp(norm)  # norm = m 2**e with 1/2 <= m < 1
    s = 0 if norm <= 0.5 else (e if m == 0.5 else e + 1)
    B = np.ldexp(A, -s)
    E = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ B / k
        E = E + term
        if np.abs(term).max() < 1e-16 * max(np.abs(E).max(), 1.0):
            break
        k += 1
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for _ in range(s):
            E = E @ E
    # exp(A) is invertible, so an entry that overflowed or a row that underflowed
    # to zeros is out of the float range
    if not (np.all(np.isfinite(E)) and np.all(np.any(E != 0, axis=1))):
        raise DynamicsError(f"expm: {s} squarings leave the float range")
    return E


# ---------------------------------------------------------------------------
# Schedules and trajectories


@dataclass(frozen=True)
class WeightSchedule:
    """Time-gridded samples of W(t), linearly interpolated between grid points.

    A repeated grid time is a join, where W may jump. The grid never goes
    back, and each piece between joins has two or more times. Every sample
    is zero off `mask`, the n-by-n boolean edge pattern (graph.mask)."""

    grid: np.ndarray
    W_seq: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        W_seq = np.asarray(self.W_seq, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "W_seq", W_seq)
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        n = self.mask.shape[0]
        if W_seq.shape != (grid.size, n, n):
            raise InputError(
                f"schedule shape {W_seq.shape} does not match grid size {grid.size} and n={n}")
        step = np.diff(grid)
        joins = step == 0.0
        if grid.size < 2 or not np.all(step >= 0.0) or joins[0] or joins[-1] \
                or np.any(joins[1:] & joins[:-1]):
            raise InputError("schedule grid must be increasing, with a repeated time only "
                             "as a join between pieces of >= 2 points")
        off = ~self.mask
        bad = np.abs(W_seq[:, off]).max(initial=0.0)
        if bad > 0.0:
            raise InputError(f"schedule violates sparsity pattern (max off-pattern entry {bad})")

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def tf(self) -> float:
        return float(self.grid[-1])

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def pieces(self) -> list:
        """The join-free schedules the grid's joins separate, in order."""
        cuts = [0, *(np.flatnonzero(np.diff(self.grid) == 0.0) + 1), self.grid.size]
        return [WeightSchedule(grid=self.grid[a:b], W_seq=self.W_seq[a:b], mask=self.mask)
                for a, b in zip(cuts, cuts[1:])]

    def W_at(self, t: float) -> np.ndarray:
        """Linear interpolation of the samples, clamped at the ends; the later piece's at a join."""
        g = self.grid
        if t <= g[0]:
            return self.W_seq[0]
        if t >= g[-1]:
            return self.W_seq[-1]
        k = int(np.searchsorted(g, t, side="right")) - 1
        a = (t - g[k]) / (g[k + 1] - g[k])
        return (1.0 - a) * self.W_seq[k] + a * self.W_seq[k + 1]


def constant_schedule(W: np.ndarray, t0: float, tf: float, msk: np.ndarray) -> WeightSchedule:
    """Schedule holding W fixed over [t0, tf]."""
    W = np.asarray(W, dtype=float)
    return WeightSchedule(grid=np.linspace(t0, tf, 2), W_seq=np.repeat(W[None, :, :], 2, axis=0),
                          mask=msk)


@dataclass(frozen=True)
class TransitionTrajectory:
    """Gridded transition matrices X(t) with X(t0) = I and positive determinant."""

    grid: np.ndarray
    X_seq: np.ndarray
    dets: np.ndarray


def _rk4(f, y0: np.ndarray, t0: float, tf: float, steps: int,
         stage: np.ndarray | None = None, sign=1.0):
    """Fixed-step RK4; yields (t_k, y_k) at t_k = t0 + k h for k < steps, then at tf.

    The rate function f(t, s, out) writes the rate at the stage input s into
    out. Every stage input is written into one buffer, `stage` if given (a
    caller-owned view whose layout the rate function reads directly), and
    k1..k4 are allocated once per integration. Each stage performs the same
    floating-point operations in the same order as y + h/2 k and
    y + h/6 (k1 + 2 k2 + 2 k3 + k4), so buffering changes no bits: 2 k is
    k + k, which is exact. `sign` (+-1 per component, broadcastable to y)
    multiplies h/2, h and h/6 once, into arrays of y's shape, so f may write
    a rate negated where its sign is -1 with no bit changed and no stage
    broadcasts. Every yielded y_k is a fresh array. Callers check steps >= 1.
    """
    h = (tf - t0) / steps
    y = np.array(y0, dtype=float)
    half, full, sixth = (np.broadcast_to(sign * c, y.shape).copy() for c in (h / 2, h, h / 6))
    s = np.empty_like(y) if stage is None else stage
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    yield t0, y
    for k in range(steps):
        t = t0 + k * h
        np.copyto(s, y)
        f(t, s, k1)
        np.add(y, np.multiply(k1, half, s), s)
        f(t + h / 2, s, k2)
        np.add(y, np.multiply(k2, half, s), s)
        f(t + h / 2, s, k3)
        np.add(y, np.multiply(k3, full, s), s)
        f(t + h, s, k4)
        np.add(k1, np.add(k2, k2, k2), k2)
        np.add(k2, np.add(k3, k3, k3), k2)
        np.add(k2, k4, k2)
        y = y + np.multiply(k2, sixth, k2)
        yield (tf if k == steps - 1 else t0 + (k + 1) * h), y


def integrate_transition(sched: WeightSchedule, steps: int) -> TransitionTrajectory:
    """Integrate Xdot = W(t) X from the identity; raises where det X first rounds to <= 0."""
    grid, X_seq = propagate_state(sched, np.eye(sched.n), steps)
    dets = np.array([determinant(X) for X in X_seq])
    for k in np.flatnonzero(dets <= 0.0)[:1]:
        raise DynamicsError(f"integrate_transition: det X(t) = {dets[k]} is not a positive "
                            f"float at t = {grid[k]}")
    return TransitionTrajectory(grid=grid, X_seq=X_seq, dets=dets)


def simulation_steps(sched: WeightSchedule) -> int:
    """Step count for re-integrating an emitted schedule: the largest count any
    piece asks for, which the replay takes in every piece.

    A piece asks for half its grid intervals when its grid is uniform with an
    even interval count of at least 100: every RK4 stage time then lands
    exactly on a stored sample, so no interpolation error enters and the re-run
    tracks the producing integration closely. A coarse or non-uniform piece
    asks for its interval count, and at least 200.
    """
    def asks(grid):
        m, spacing = grid.size - 1, np.diff(grid)
        if m >= 100 and m % 2 == 0 and np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
            return m // 2
        return max(m, 200)
    return max(asks(piece.grid) for piece in sched.pieces())


def propagate_state(sched: WeightSchedule, x0: np.ndarray, steps: int):
    """RK4 run of xdot = W(t) x from x0 of shape (n,) or (n, n), a whole `steps`
    >= 1 steps in every piece, each starting where the last one ended; returns
    (grid, states) with each join's time once. W_at keeps its last (t, W), as
    RK4's middle stages share a time and a step often starts where one ended."""
    steps = int(numeric_array(steps, "steps", (), whole=True))
    if steps < 1:
        raise InputError("steps must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    n = sched.n
    if x0.shape not in ((n,), (n, n)):
        raise InputError(f"initial state has shape {x0.shape}, expected ({n},) or ({n}, {n})")
    pts = [(sched.t0, x0)]
    for piece in sched.pieces():
        W_at = lru_cache(maxsize=1)(piece.W_at)
        with np.errstate(over="ignore", invalid="ignore"):
            run = list(_rk4(lambda t, y, out: np.matmul(W_at(t), y, out=out),
                            pts[-1][1], piece.t0, piece.tf, steps))
        if not np.all(np.isfinite(run[-1][1])):  # a non-finite value stays non-finite
            raise DynamicsError("propagate_state: non-finite values encountered")
        pts += run[1:]
    return np.array([t for t, _ in pts]), np.array([y for _, y in pts])


def liouville_residual(traj: TransitionTrajectory, sched: WeightSchedule) -> float:
    """Max relative gap between det X(t) and exp of the integrated trace of W.

    The trace integral uses the trapezoid rule on the grid of `traj`, the run
    of integrate_transition (equal steps per piece), one piece at a time with
    that piece's W, so a join belongs to both pieces. The identity
    det X(t) = exp(int tr W) then holds up to integrator accuracy.
    """
    pieces = sched.pieces()
    steps = (traj.grid.size - 1) // len(pieces)
    cum = [0.0]
    for k, piece in enumerate(pieces):
        t = traj.grid[k * steps:(k + 1) * steps + 1]
        traces = np.array([np.trace(piece.W_at(s)) for s in t])
        cum.extend(cum[-1] + np.cumsum(np.diff(t) * (traces[:-1] + traces[1:]) / 2.0))
    return float(np.max(np.abs(traj.dets - np.exp(cum)) / traj.dets))
