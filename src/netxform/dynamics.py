"""Integration of the matrix dynamics Xdot = W(t) X under a sparse schedule.

The schedule samples W on a time grid and interpolates linearly in between,
so W(t) is piecewise-linear and continuous within a schedule. Integration is
classical fixed-step RK4; keeping it fixed-step makes runs reproducible and
keeps the state and costate integrations in the shooting solver consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SparsityMask


class DynamicsError(ValueError):
    """Bad schedule, dimension mismatch, or numerical blow-up."""


# ---------------------------------------------------------------------------
# Dense linear algebra kept in-house: the determinant sign convention and the
# pivoting order must be deterministic (feasibility reports compare det > 0
# and the swap targets need exact signs for triangular inputs).

def _eliminate(A: np.ndarray, B: np.ndarray | None, tol: float):
    """Row-reduce A in place by partial pivoting, applying the same row
    operations to B when given. A column whose largest remaining entry is at
    most tol in magnitude is skipped. Returns the pivot columns and the sign
    of the row permutation."""
    rows, cols = A.shape
    pivots, sign = [], 1.0
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = r + int(np.argmax(np.abs(A[r:, c])))
        if abs(A[p, c]) <= tol:
            continue
        if p != r:
            A[[r, p]] = A[[p, r]]
            if B is not None:
                B[[r, p]] = B[[p, r]]
            sign = -sign
        fac = A[r + 1:, c] / A[r, c]
        A[r + 1:, c + 1:] -= np.outer(fac, A[r, c + 1:])
        if B is not None:
            B[r + 1:] -= np.outer(fac, B[r])
        pivots.append(c)
    return pivots, sign


def _determinant(A: np.ndarray) -> tuple:
    """det A and its sign (-1, 0 or 1). The sign comes from the row swaps and
    the signs of the pivots, so it stays right when the product of the
    pivots overflows or underflows."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DynamicsError(f"determinant needs a square matrix, got {A.shape}")
    pivots, sign = _eliminate(A, None, 0.0)
    if len(pivots) < n:
        return 0.0, 0
    d = A.diagonal()
    # a product of Python floats overflows to inf without a numpy warning
    return sign * math.prod(d.tolist()), int(sign) * (-1) ** int(np.count_nonzero(d < 0))


def determinant(A: np.ndarray) -> float:
    """Determinant by partially pivoted elimination with exact swap signs."""
    return _determinant(A)[0]


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by pivoted elimination; raises on numerically singular A."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape[0] != n:
        raise DynamicsError("solve_linear: dimension mismatch")
    vec = b.ndim == 1
    B = b.reshape(n, -1)
    tiny = n * np.finfo(float).eps * max(np.abs(A).max(), 1.0)
    if len(_eliminate(A, B, tiny)[0]) < n:
        raise DynamicsError("solve_linear: matrix singular to working precision")
    X = np.zeros_like(B)
    for k in range(n - 1, -1, -1):
        X[k] = (B[k] - A[k, k + 1:] @ X[k + 1:]) / A[k, k]
    return X[:, 0] if vec else X


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a truncated series.

    The input is scaled by 2**-s until its norm is at most 1/2, the series is
    summed to relative machine precision, and the result squared s times.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise DynamicsError("expm: non-finite input")
    n = A.shape[0]
    norm = np.abs(A).sum(axis=1).max() if n else 0.0
    s = 0
    while norm / (2 ** s) > 0.5:
        s += 1
    B = A / (2 ** s)
    E = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ B / k
        E = E + term
        if np.abs(term).max() < 1e-16 * max(np.abs(E).max(), 1.0):
            break
        k += 1
    for _ in range(s):
        E = E @ E
    return E


# ---------------------------------------------------------------------------
# Schedules and trajectories


@dataclass(frozen=True)
class WeightSchedule:
    """Time-gridded samples of W(t), linearly interpolated between grid points."""

    grid: np.ndarray
    W_seq: np.ndarray
    mask: SparsityMask

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        W_seq = np.asarray(self.W_seq, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "W_seq", W_seq)
        n = self.mask.n
        if W_seq.shape != (grid.size, n, n):
            raise DynamicsError(
                f"schedule shape {W_seq.shape} does not match grid size {grid.size} and n={n}")
        if grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise DynamicsError("schedule grid must be strictly increasing with >= 2 points")
        off = ~self.mask.entries
        bad = np.abs(W_seq[:, off]).max(initial=0.0)
        if bad > 0.0:
            raise DynamicsError(f"schedule violates sparsity pattern (max off-pattern entry {bad})")

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def tf(self) -> float:
        return float(self.grid[-1])

    @property
    def n(self) -> int:
        return self.mask.n

    def W_at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation of the samples; clamped at the ends."""
        g = self.grid
        if t <= g[0]:
            return self.W_seq[0]
        if t >= g[-1]:
            return self.W_seq[-1]
        k = int(np.searchsorted(g, t, side="right")) - 1
        a = (t - g[k]) / (g[k + 1] - g[k])
        return (1.0 - a) * self.W_seq[k] + a * self.W_seq[k + 1]


def constant_schedule(W: np.ndarray, t0: float, tf: float, msk: SparsityMask) -> WeightSchedule:
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

    @property
    def final(self) -> np.ndarray:
        return self.X_seq[-1]


def _rk4(f, y0: np.ndarray, t0: float, tf: float, steps: int,
         stage: np.ndarray | None = None):
    """Fixed-step RK4; yields (t_k, y_k) for every grid point including t0.

    The rate function f(t, s, out) writes the rate at the stage input s into
    out. Every stage input is written into one buffer, `stage` if given (a
    caller-owned view whose layout the rate function reads directly), and
    k1..k4 are allocated once per integration. Each stage performs the same
    floating-point operations in the same order as y + h/2 k and
    y + h/6 (k1 + 2 k2 + 2 k3 + k4), so buffering changes no bits. Every
    yielded y_k is a fresh array.
    """
    if steps < 1:
        raise DynamicsError("steps must be >= 1")
    h = (tf - t0) / steps
    y = np.array(y0, dtype=float)
    s = np.empty_like(y) if stage is None else stage
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    yield t0, y
    for k in range(steps):
        t = t0 + k * h
        np.copyto(s, y)
        f(t, s, k1)
        np.add(y, np.multiply(k1, h / 2, out=s), out=s)
        f(t + h / 2, s, k2)
        np.add(y, np.multiply(k2, h / 2, out=s), out=s)
        f(t + h / 2, s, k3)
        np.add(y, np.multiply(k3, h, out=s), out=s)
        f(t + h, s, k4)
        np.add(k1, np.multiply(k2, 2, out=k2), out=k2)
        np.add(k2, np.multiply(k3, 2, out=k3), out=k2)
        np.add(k2, k4, out=k2)
        y = y + np.multiply(k2, h / 6, out=k2)
        yield t0 + (k + 1) * h, y


def _replay(sched: WeightSchedule, y0: np.ndarray, steps: int, caller: str):
    """RK4 run of ydot = W(t) y from y0 over the schedule's interval; returns
    (grid, ys). `caller` names the public function in the error message."""
    pts = list(_rk4(lambda t, y, out: np.matmul(sched.W_at(t), y, out=out),
                     y0, sched.t0, sched.tf, steps))
    ys = np.array([y for _, y in pts])
    if not np.all(np.isfinite(ys)):
        raise DynamicsError(f"{caller}: non-finite values encountered")
    return np.array([t for t, _ in pts]), ys


def integrate_transition(sched: WeightSchedule, steps: int) -> TransitionTrajectory:
    """Integrate Xdot = W(t) X from the identity over the schedule's interval."""
    grid, X_seq = _replay(sched, np.eye(sched.n), steps, "integrate_transition")
    dets = np.array([determinant(X) for X in X_seq])
    if np.any(dets <= 0.0):
        raise DynamicsError("integrate_transition: determinant lost positivity")
    return TransitionTrajectory(grid=grid, X_seq=X_seq, dets=dets)


def simulation_steps(sched: WeightSchedule) -> int:
    """Step count for re-integrating an emitted schedule.

    Half the grid intervals when the grid is uniform with an even interval
    count: every RK4 stage time then lands exactly on a stored sample, so no
    interpolation error enters and the re-run tracks the producing
    integration closely. Coarse or non-uniform schedules fall back to a flat
    default.
    """
    m = sched.grid.size - 1
    spacing = np.diff(sched.grid)
    if m >= 100 and m % 2 == 0 and np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        return m // 2
    return max(m, 200)


def propagate_state(sched: WeightSchedule, xi: np.ndarray, steps: int):
    """Integrate the node states xdot = W(t) x from xi; returns (grid, states)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (sched.n,):
        raise DynamicsError(f"initial state has shape {xi.shape}, expected ({sched.n},)")
    return _replay(sched, xi, steps, "propagate_state")


def propagate_state_through(schedules, xi: np.ndarray, steps_per_segment: int):
    """Propagate node states through a sequence of schedule segments.

    Segments are chained (each starts from the previous final state); the
    duplicated join points are dropped so the returned grid is increasing.
    """
    schedules = list(schedules)
    if not schedules:
        raise DynamicsError("propagate_state_through: no schedule segments")
    x = np.asarray(xi, dtype=float)
    grids, states = [], []
    for idx, sched in enumerate(schedules):
        g, xs = propagate_state(sched, x, steps_per_segment)
        x = xs[-1]
        if idx:
            g, xs = g[1:], xs[1:]
        grids.append(g)
        states.append(xs)
    return np.concatenate(grids), np.concatenate(states)


def liouville_residual(traj: TransitionTrajectory, sched: WeightSchedule) -> float:
    """Max relative gap between det X(t) and exp of the integrated trace of W.

    The trace integral uses the trapezoid rule on the trajectory grid, so the
    identity det X(t) = exp(int tr W) holds up to integrator accuracy.
    """
    traces = np.array([np.trace(sched.W_at(t)) for t in traj.grid])
    h = np.diff(traj.grid)
    cum = np.concatenate(([0.0], np.cumsum(h * (traces[:-1] + traces[1:]) / 2.0)))
    return float(np.max(np.abs(traj.dets - np.exp(cum)) / traj.dets))
