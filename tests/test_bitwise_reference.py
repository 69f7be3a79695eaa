"""The buffered integrators against plain reference loops, bit for bit.

The references allocate a fresh array at every RK4 stage and evaluate
y + h/2 k and y + h/6 (k1 + 2 k2 + 2 k3 + k4) as written. The extremal
reference takes its rates from the public extremal_rhs, which
test_extremal_rhs_is_one_stacked_rate pins to the plain formulas
W = -(lam X^T) on the edge pattern, W X and -W^T lam.
"""

import numpy as np
import pytest

import netxform as nx
from netxform.dynamics import integrate_transition, propagate_state
from netxform.graph import mask
from netxform.optimal_control import (DIVERGENCE_LIMIT, BvpProblem, _shoot_batch,
                                      extremal_rhs, shoot)


def assert_same_bits(a, b):
    """Equal bit for bit (the sign of a zero included); NaN matches NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def reference_rk4(f, y0, t0, tf, steps):
    """Classical RK4 with a fresh array per stage; returns (grid, ys)."""
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
    return np.array(grid), np.array(ys)


def reference_shoot(prob, lam0s):
    """The extremal system for a costate stack on the stacked state (X, lam);
    returns (grid, Y_seq of shape (steps + 1, 2, B, n, n), diverged)."""
    n = lam0s.shape[-1]
    msk = mask(prob.graph)
    Y0 = np.stack([np.broadcast_to(np.eye(n), lam0s.shape), lam0s])
    with np.errstate(over="ignore", invalid="ignore"):
        grid, Y_seq = reference_rk4(lambda t, Y: extremal_rhs(Y[0], Y[1], msk),
                                    Y0, prob.t0, prob.tf, prob.steps)
        diverged = ~(np.abs(Y_seq[-1]).max(axis=(0, 2, 3)) <= DIVERGENCE_LIMIT)
    return grid, Y_seq, diverged


@pytest.mark.parametrize("graph, diverging", [
    (nx.build_graph(1, []), None),
    (nx.path_graph(5), None),
    (nx.cycle_graph(4), None),
    (nx.complete_graph(3), 1),
])
def test_shoot_matches_the_reference_loop(graph, diverging):
    n = graph.n
    prob = BvpProblem(graph=graph, target=np.eye(n), t0=0.25, tf=1.5, steps=60)
    rng = np.random.default_rng(n)
    lam0s = rng.uniform(-0.5, 0.5, (3, n, n))
    if diverging is not None:
        lam0s[diverging] = 40.0
    grid, Y_seq, diverged = reference_shoot(prob, lam0s)
    assert diverged.tolist() == [b == diverging for b in range(3)]

    X_tf, div, _ = _shoot_batch(prob, lam0s)
    assert_same_bits(X_tf, Y_seq[-1, 0])
    assert np.array_equal(div, diverged)
    for b in range(3):
        X1, info = shoot(prob, lam0s[b])
        assert_same_bits(X1, Y_seq[-1, 0, b])
        assert_same_bits(info["grid"], grid)
        assert_same_bits(info["X_seq"], Y_seq[:, 0, b])
        assert_same_bits(info["lambda_seq"], Y_seq[:, 1, b])
        assert info["diverged"] == diverged[b]


def _random_schedule(graph, samples, seed):
    msk = mask(graph)
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(0.0, 2.0, samples))
    W_seq = np.array([msk.apply(rng.normal(size=(graph.n, graph.n))) for _ in grid])
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
