"""The buffered integrators and the shared elimination against plain
reference loops, bit for bit.

The RK4 references allocate a fresh array at every stage and evaluate
y + h/2 k and y + h/6 (k1 + 2 k2 + 2 k3 + k4) as written. The extremal
reference takes its rates from the public extremal_rhs, which evaluates
the plain formulas W = -(lam X^T) on the edge pattern, W X and -W^T lam,
without the buffered kernel that the shoot runs. The elimination
reference is the pivoting loop solve_linear ran before it shared one with
determinant, and determinant's reference is exact rational elimination,
rounded once.
"""

import math

import numpy as np
import pytest

import netxform as nx
from netxform.dynamics import (DynamicsError, _rk4, determinant, integrate_transition,
                               propagate_state, simulation_steps, solve_linear)
from netxform.optimal_control import (DIVERGENCE_LIMIT, BvpProblem, _shoot_batch,
                                      extremal_rhs, shoot)

from conftest import exact_determinant, rounded


def assert_same_bits(a, b):
    """Equal bit for bit (the sign of a zero included); NaN matches NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def reference_rk4(f, y0, t0, tf, steps):
    """Classical RK4 with a fresh array per stage; returns (grid, ys). The grid
    ends on tf itself, which t0 + steps h can miss by a float."""
    h = (tf - t0) / steps
    y = np.array(y0, dtype=float)
    grid, ys = [t0], [y]
    for k in range(steps):
        t = t0 + k * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        grid.append(t0 + (k + 1) * h)
        ys.append(y)
    grid[-1] = tf
    return np.array(grid), np.array(ys)


def reference_shoot(prob, lam0s):
    """The extremal system for a costate stack on the stacked state (X, lam);
    returns (grid, Y_seq of shape (steps + 1, 2, B, n, n), diverged)."""
    n = lam0s.shape[-1]
    msk = prob.graph.mask
    Y0 = np.stack([np.broadcast_to(np.eye(n), lam0s.shape), lam0s])
    with np.errstate(over="ignore", invalid="ignore"):
        grid, Y_seq = reference_rk4(lambda t, Y: extremal_rhs(Y[0], Y[1], msk),
                                    Y0, prob.t0, prob.tf, prob.steps)
        diverged = ~(np.abs(Y_seq[-1]).max(axis=(0, 2, 3)) <= DIVERGENCE_LIMIT)
    return grid, Y_seq, diverged


@pytest.mark.parametrize("graph, diverging, batch, steps", [
    pytest.param(nx.build_graph(1, []), None, 3, 60, id="graph0-None"),
    pytest.param(nx.path_graph(5), None, 3, 60, id="graph1-None"),
    pytest.param(nx.cycle_graph(4), None, 3, 60, id="graph2-None"),
    pytest.param(nx.complete_graph(3), 1, 3, 60, id="graph3-1"),
    # the solver's pass shapes at its default step count: a group of line-search
    # tries (B = 4) and two tries riding with the Jacobian stencil (B = n^2 + 2)
    *(pytest.param(nx.path_graph(n), 2, B, 200, id=f"path{n}-B{B}")
      for n in (4, 5, 8) for B in (4, n * n + 2)),
])
def test_shoot_matches_the_reference_loop(graph, diverging, batch, steps):
    n = graph.n
    prob = BvpProblem(graph=graph, target=np.eye(n), t0=0.25, tf=1.5, steps=steps)
    rng = np.random.default_rng(n)
    lam0s = rng.uniform(-0.5, 0.5, (batch, n, n))
    if diverging is not None:
        lam0s[diverging] = 40.0
    grid, Y_seq, diverged = reference_shoot(prob, lam0s)
    assert diverged.tolist() == [b == diverging for b in range(batch)]

    X_tf, div, _ = _shoot_batch(prob, lam0s)
    assert_same_bits(X_tf, Y_seq[-1, 0])
    assert np.array_equal(div, diverged)
    for b in range(batch):
        X1, info = shoot(prob, lam0s[b])
        assert_same_bits(X1, Y_seq[-1, 0, b])
        assert_same_bits(info["grid"], grid)
        assert_same_bits(info["X_seq"], Y_seq[:, 0, b])
        assert_same_bits(info["lambda_seq"], Y_seq[:, 1, b])
        assert info["diverged"] == diverged[b]


def _random_schedule(graph, samples, seed):
    msk = graph.mask
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(0.0, 2.0, samples))
    W_seq = np.array([np.where(msk, rng.normal(size=(graph.n, graph.n)), 0.0) for _ in grid])
    return nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)


@pytest.mark.parametrize("graph", [nx.build_graph(1, []), nx.path_graph(5), nx.cycle_graph(4)])
def test_state_integrators_match_the_reference_loop(graph):
    sched = _random_schedule(graph, 9, graph.n)

    def rate(t, y):
        return sched.W_at(t) @ y

    traj = integrate_transition(sched, 37)
    grid, X_seq = reference_rk4(rate, np.eye(graph.n), sched.t0, sched.tf, 37)
    assert_same_bits(traj.grid, grid)
    assert_same_bits(traj.X_seq, X_seq)

    xi = np.linspace(-1.0, 1.0, graph.n)
    g, xs = propagate_state(sched, xi, 37)
    grid, ref = reference_rk4(rate, xi, sched.t0, sched.tf, 37)
    assert_same_bits(g, grid)
    assert_same_bits(xs, ref)


def test_rk4_grid_is_the_linspace():
    """RK4's grid, t0 + k h and then tf, is np.linspace(t0, tf, steps + 1) bit
    for bit: the grid of a solved arc, on which ExtremalSolution.moved_to lays
    a copy."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        t0 = rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-3, 6)
        tf = t0 + rng.uniform(0.01, 10.0) * 10.0 ** rng.integers(-2, 3)
        steps = int(rng.integers(1, 300))
        grid = [t for t, _ in _rk4(lambda t, y, out: out.fill(0.0), np.zeros(1), t0, tf, steps)]
        assert_same_bits(grid, np.linspace(t0, tf, steps + 1))


def test_signed_rk4_matches_plain_rk4():
    """A component whose rate is written negated and stepped with sign -1 gives the
    plain integration's bits, inf and nan included."""
    rng = np.random.default_rng(17)
    A = rng.normal(size=(2, 3, 3))
    A[0] *= 2000.0  # component 0 overflows to inf, then inf - inf gives nan
    y0 = rng.normal(size=(2, 3, 4))

    def plain(t, y, out):
        np.matmul(A * (1.0 + t), y, out=out)

    def signed(t, y, out):
        plain(t, y, out)
        np.negative(out[0], out=out[0])

    sign = np.array([-1.0, 1.0]).reshape(2, 1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        want = list(_rk4(plain, y0, 0.25, 1.5, 60))
        got = list(_rk4(signed, y0, 0.25, 1.5, 60, sign=sign))
        grid, ref = reference_rk4(lambda t, y: (A * (1.0 + t)) @ y, y0, 0.25, 1.5, 60)
    assert not np.all(np.isfinite(want[-1][1][0])) and np.all(np.isfinite(want[-1][1][1]))
    assert_same_bits([t for t, _ in got], [t for t, _ in want])
    assert_same_bits(np.array([y for _, y in got]), np.array([y for _, y in want]))
    assert_same_bits(np.array([y for _, y in want]), ref)


@pytest.mark.parametrize("sign", [1.0, np.array([-1.0, 1.0]).reshape(2, 1, 1)],
                         ids=["scalar", "per-component"])
def test_rk4_edge_values_match_the_reference_loop(sign):
    """Signed zeros, subnormals and overflow through the stages: _rk4, which doubles k2
    and k3 as k + k and multiplies by h/2, h and h/6 arrays of y's shape, matches the
    reference loop bit for bit, -0.0, subnormals, inf and nan included."""
    tiny = np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(23)
    y0 = np.array([[[-0.0, 0.0, tiny, -tiny],
                    [3 * tiny, -1e-310, 1e300, -1e300],
                    [1.7e308, -1.7e308, 1.0, -0.0],
                    rng.normal(size=4)]] * 2)
    y0[1] *= -1.0
    c = np.array([[[1.5, -2.0, 0.5, 3.0],
                   [-0.25, 4.0, 1e9, -1e9],  # k overflows, then a stage meets inf - inf
                   [0.75, -0.75, -1.0, 2.0],  # 2 k overflows where k does not
                   rng.normal(size=4)]] * 2)

    def rate(t, y, out):
        np.multiply(c * (1.0 + t), y, out=out)
        if np.ndim(sign):
            np.negative(out[0], out=out[0])

    with np.errstate(over="ignore", invalid="ignore"):
        got = list(_rk4(rate, y0, 0.25, 1.5, 7, sign=sign))
        grid, ref = reference_rk4(lambda t, y: c * (1.0 + t) * y, y0, 0.25, 1.5, 7)
    ys = np.array([y for _, y in got])
    for kind in (np.signbit(ys) & (ys == 0.0), (ys != 0.0) & (np.abs(ys) < np.finfo(float).tiny),
                 np.isposinf(ys), np.isneginf(ys), np.isnan(ys)):
        assert kind.any()
    assert_same_bits([t for t, _ in got], grid)
    assert_same_bits(ys, ref)


def test_replay_reads_each_stage_time_once(monkeypatch):
    """The replay's rate keeps the last W(t): RK4's middle stages share a time, and
    a step's end is often the next step's start (216 reads here, 400 uncached)."""
    graph = nx.path_graph(4)
    msk = graph.mask
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 1.0, 201)
    W_seq = np.array([np.where(msk, rng.normal(size=(4, 4)), 0.0) for _ in grid])
    sched = nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)
    steps = simulation_steps(sched)
    xi = rng.normal(size=4)
    want_grid, want = reference_rk4(lambda t, y: sched.W_at(t) @ y, xi, sched.t0, sched.tf,
                                    steps)

    times = []
    W_at = nx.WeightSchedule.W_at
    monkeypatch.setattr(nx.WeightSchedule, "W_at", lambda self, t: times.append(t) or W_at(self, t))
    g, xs = propagate_state(sched, xi, steps)
    assert len(times) <= 3 * steps + 1
    assert_same_bits(g, want_grid)
    assert_same_bits(xs, want)


def reference_solve_linear(A, b):
    """Returns None where the loop found A singular."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    vec = b.ndim == 1
    B = b.reshape(n, -1)
    tiny = n * np.finfo(float).eps * max(np.abs(A).max(), 1.0)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[p, k]) <= tiny:
            return None
        if p != k:
            A[[k, p]] = A[[p, k]]
            B[[k, p]] = B[[p, k]]
        fac = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] -= np.outer(fac, A[k, k + 1:])
        B[k + 1:] -= np.outer(fac, B[k])
    X = np.zeros_like(B)
    for k in range(n - 1, -1, -1):
        X[k] = (B[k] - A[k, k + 1:] @ X[k + 1:]) / A[k, k]
    return X[:, 0] if vec else X


def _elimination_input(rng, n, kind):
    """A seeded n-by-n matrix of one of the kinds the pivoting has to get right."""
    if kind == "integer":  # exact zeros and ties among the pivot candidates
        return rng.integers(-2, 3, (n, n)).astype(float)
    A = rng.standard_normal((n, n))
    if kind == "zero column":
        A[:, rng.integers(n)] = 0.0
    elif kind == "negative zero column":
        A[:, rng.integers(n)] = -0.0
    elif kind == "repeated row" and n > 1:
        A[rng.integers(1, n)] = A[0]
    elif kind == "scaled":
        A *= 10.0 ** rng.integers(-300, 300)
    elif kind == "non-finite":
        A[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    return A


KINDS = ["normal", "integer", "zero column", "negative zero column", "repeated row",
         "scaled", "non-finite"]


@pytest.mark.parametrize("kind", KINDS)
def test_square_elimination_matches_the_reference_loops(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    raised = 0
    for n in range(1, 9):
        for _ in range(40):
            A = _elimination_input(rng, n, kind)
            b = rng.standard_normal((n,) if rng.integers(2) else (n, 2))
            with np.errstate(all="ignore"):
                want_det = rounded(exact_determinant(A)) if np.isfinite(A).all() else math.nan
                assert_same_bits(determinant(A), want_det)
                want = reference_solve_linear(A, b)
                if want is None:
                    raised += 1
                    with pytest.raises(DynamicsError, match="singular"):
                        solve_linear(A, b)
                else:
                    assert_same_bits(solve_linear(A, b), want)
    if kind in ("integer", "zero column", "negative zero column", "repeated row"):
        assert raised > 0  # the singular branch was exercised


RHS_KINDS = ["scaled up", "scaled down", "non-finite"]


@pytest.mark.parametrize("kind", RHS_KINDS)
def test_right_hand_sides_match_the_reference_loop(kind):
    """solve_linear eliminates [A | b] as one matrix; a right-hand side near the ends of
    the float range or holding a non-finite entry gets the loop's bits."""
    rng = np.random.default_rng(200 + RHS_KINDS.index(kind))
    for n in range(1, 9):
        for _ in range(40):
            A = _elimination_input(rng, n, KINDS[rng.integers(len(KINDS))])
            b = rng.standard_normal((n,) if rng.integers(2) else (n, 3))
            if kind == "non-finite":
                b.flat[rng.integers(b.size)] = rng.choice([np.nan, np.inf, -np.inf])
            else:
                b *= 10.0 ** (300 if kind == "scaled up" else -300)
            with np.errstate(all="ignore"):
                want = reference_solve_linear(A, b)
                if want is None:
                    with pytest.raises(DynamicsError, match="singular"):
                        solve_linear(A, b)
                else:
                    assert_same_bits(solve_linear(A, b), want)
