"""End-to-end runs: consensus densification and node-value swapping.

Densification synthesizes weights on a sparse graph so that the network
reproduces, in one horizon, the terminal map of consensus on a denser
graph. Swapping steers the transition matrix to a permutation, routed
through a waypoint because the direct homotopy passes through a singular
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (constant_schedule, determinant, expm, propagate_state,
                       propagate_state_through, simulation_steps)
from .graph import Graph, is_connected, laplacian, mask
from .optimal_control import BvpProblem, solve_with_waypoints


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


# The 4-node cyclic waypoint used for the (1,2)(3,4) swap: it keeps the
# straight-line homotopy of each half away from singular matrices.
SWAP_WAYPOINT_4 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


def _initial_state(value, n: int) -> np.ndarray | None:
    """The optional initial node values as a finite vector of length n."""
    if value is None:
        return None
    try:
        xi = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"initial_state is not numeric: {exc}") from exc
    if xi.shape != (n,) or not np.all(np.isfinite(xi)):
        raise ScenarioError(f"initial_state must hold {n} finite numbers, got shape {xi.shape}")
    return xi


def _swap_pairs(value) -> tuple:
    """The swap pairs as a tuple of (a, b) pairs of whole node numbers."""
    try:
        P = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"swap pairs are not numeric: {exc}") from exc
    if P.size == 0:
        return ()
    if P.ndim != 2 or P.shape[1] != 2 or not np.all(np.isfinite(P) & (P == np.round(P))):
        raise ScenarioError(f"swap pairs must be a list of [a, b] node numbers, got {value!r}")
    return tuple((int(a), int(b)) for a, b in P)


@dataclass(frozen=True)
class DensifyScenario:
    sparse_graph: Graph
    dense_graph: Graph
    t0: float = 0.0
    tf: float = 1.0
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if self.sparse_graph.n != self.dense_graph.n:
            raise ScenarioError("sparse and dense graphs must share the vertex set")
        if not (is_connected(self.sparse_graph) and is_connected(self.dense_graph)):
            raise ScenarioError("both graphs must be connected")
        object.__setattr__(self, "initial_state",
                           _initial_state(self.initial_state, self.sparse_graph.n))


@dataclass(frozen=True)
class SwapScenario:
    graph: Graph
    pairs: tuple
    waypoints: tuple = ()
    initial_state: np.ndarray | None = None
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pairs", _swap_pairs(self.pairs))
        seen = set()
        for (a, b) in self.pairs:
            if a == b or a in seen or b in seen:
                raise ScenarioError("swap pairs must be disjoint")
            seen.update((a, b))
            if not (1 <= a <= self.graph.n and 1 <= b <= self.graph.n):
                raise ScenarioError(f"swap pair ({a},{b}) out of range")
        object.__setattr__(self, "initial_state",
                           _initial_state(self.initial_state, self.graph.n))


@dataclass
class DensifyReport:
    grid: np.ndarray
    err_sparse: np.ndarray
    err_dense: np.ndarray
    err_synth: np.ndarray
    node_states: np.ndarray
    final_state: np.ndarray
    target_state: np.ndarray
    xi: np.ndarray
    solution: object


@dataclass
class SwapReport:
    grid: np.ndarray
    node_states: np.ndarray
    final_state: np.ndarray
    target: np.ndarray
    xi: np.ndarray
    solution: object


def densification_target(dense_graph: Graph, t0: float, tf: float) -> np.ndarray:
    """Terminal consensus map of the dense graph: exp(-L_d (tf - t0))."""
    return expm(-laplacian(dense_graph) * (tf - t0))


def agreement_error(x: np.ndarray, x0: np.ndarray) -> float:
    """Distance from x to the vector holding the average of the initial state."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.shape != x0.shape:
        raise ScenarioError("agreement_error: dimension mismatch")
    return float(np.linalg.norm(x - np.mean(x0)))


def swap_target(n: int, pairs) -> np.ndarray:
    """Permutation matrix exchanging each listed pair of node values."""
    T = np.eye(n)
    for (a, b) in pairs:
        T[[a - 1, b - 1]] = T[[b - 1, a - 1]]
    return T


def contraction_waypoints(T: np.ndarray, max_log_contraction: float = 4.0) -> list:
    """Intermediate targets T^(k/K) for a strongly contracting symmetric
    positive definite T.

    Shooting over the whole horizon is exponentially ill-conditioned once
    det(T) is many orders of magnitude below 1; routing through matrix-power
    waypoints keeps every segment's contraction below e^-max_log_contraction.
    Returns an empty list when T is mild or is not symmetric positive
    definite (no canonical real power path exists then).
    """
    T = np.asarray(T, dtype=float)
    if not np.allclose(T, T.T, rtol=1e-10, atol=1e-12):
        return []
    det = determinant(T)
    if det <= 0.0:
        return []
    shrink = -np.log(det)
    if shrink <= max_log_contraction:
        return []
    evals, evecs = np.linalg.eigh(T)
    if evals.min() <= 0.0:
        return []
    K = int(np.ceil(shrink / max_log_contraction))
    return [evecs @ np.diag(evals ** (k / K)) @ evecs.T for k in range(1, K)]


def default_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded random state with the mean removed (agreement error of a
    constant vector is identically zero and uninformative)."""
    xi = np.random.default_rng(seed).standard_normal(n)
    return xi - xi.mean()


def run_densify(s: DensifyScenario, max_iter: int = 300, **settings) -> DensifyReport:
    """Solve the densification BVP and compare three agreement-error curves:
    plain sparse consensus, plain dense consensus, and the synthesized run.

    A dense target contracts by e^-tr(L_d)dt, so for more than a few nodes
    it is routed through matrix-power waypoints (see contraction_waypoints);
    the iteration budget default is sized for those segment solves. The
    other solver settings default to BvpProblem's.
    """
    T = densification_target(s.dense_graph, s.t0, s.tf)
    prob = BvpProblem(graph=s.sparse_graph, target=T, t0=s.t0, tf=s.tf,
                      max_iter=max_iter, **settings)
    # drawn once BvpProblem has checked the seed
    xi = (default_initial_state(s.sparse_graph.n, prob.seed) if s.initial_state is None
          else s.initial_state)
    sol = solve_with_waypoints(prob, contraction_waypoints(T))

    schedules = [seg.schedule for seg in sol.segments()]
    grid, xs_synth = propagate_state_through(xi=xi, schedules=schedules,
                                             steps_per_segment=simulation_steps(schedules[0]))
    sparse_sched = constant_schedule(-laplacian(s.sparse_graph), s.t0, s.tf,
                                     mask(s.sparse_graph))
    dense_sched = constant_schedule(-laplacian(s.dense_graph), s.t0, s.tf,
                                    mask(s.dense_graph))
    # plain consensus runs share the synthesized run's (possibly segmented) grid
    total_steps = grid.size - 1
    _, xs_sparse = propagate_state(sparse_sched, xi, total_steps)
    _, xs_dense = propagate_state(dense_sched, xi, total_steps)

    return DensifyReport(
        grid=grid,
        err_sparse=np.array([agreement_error(x, xi) for x in xs_sparse]),
        err_dense=np.array([agreement_error(x, xi) for x in xs_dense]),
        err_synth=np.array([agreement_error(x, xi) for x in xs_synth]),
        node_states=xs_synth,
        final_state=xs_synth[-1],
        target_state=T @ xi,
        xi=xi,
        solution=sol)


def run_swap(s: SwapScenario, **settings) -> SwapReport:
    """Build the swap permutation, solve through the waypoints, and execute
    the schedule on the initial node values. The solver settings default to
    BvpProblem's."""
    n = s.graph.n
    T = swap_target(n, s.pairs)
    waypoints = [np.asarray(W, dtype=float) for W in s.waypoints]
    if not waypoints and n == 4 and set(map(tuple, map(sorted, s.pairs))) == {(1, 2), (3, 4)}:
        waypoints = [SWAP_WAYPOINT_4.copy()]
    xi = np.arange(1.0, n + 1.0) if s.initial_state is None else s.initial_state
    prob = BvpProblem(graph=s.graph, target=T, t0=s.t0, tf=s.tf, **settings)
    sol = solve_with_waypoints(prob, waypoints)
    schedules = [seg.schedule for seg in sol.segments()]
    grid, xs = propagate_state_through(schedules, xi, simulation_steps(schedules[0]))
    return SwapReport(grid=grid, node_states=xs, final_state=xs[-1],
                      target=T, xi=xi, solution=sol)
