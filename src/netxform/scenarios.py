"""End-to-end runs: consensus densification and node-value swapping.

Densification synthesizes weights on a sparse graph so that the network
reproduces, in one horizon, the terminal map of consensus on a denser
graph. Swapping steers the transition matrix to a permutation, routed
through a waypoint because the direct homotopy passes through a singular
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (constant_schedule, determinant, expm, propagate_state,
                       propagate_state_through, simulation_steps)
from .graph import Graph, is_connected, laplacian, mask, node_pairs, numeric_array
from .optimal_control import BvpProblem, Solution, solve_with_waypoints


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

# Largest contraction -log det of one segment of contraction_waypoints.
MAX_LOG_CONTRACTION = 4.0


def _initial_state(value, n: int) -> np.ndarray | None:
    """The optional initial node values as a finite vector of length n."""
    return None if value is None else numeric_array(value, "initial_state", (n,),
                                                    error=ScenarioError)


@dataclass(frozen=True)
class DensifyScenario:
    sparse_graph: Graph
    dense_graph: Graph
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

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           tuple(node_pairs(self.pairs, "swap pairs", ScenarioError)))
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
class ScenarioReport:
    """A solved scenario and its schedule replayed on the initial node values
    xi. `errors` maps a column name to a curve on `grid`."""

    grid: np.ndarray
    node_states: np.ndarray
    xi: np.ndarray
    target: np.ndarray
    solution: Solution
    errors: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.node_states[-1]


def densification_target(dense_graph: Graph, t0: float, tf: float) -> np.ndarray:
    """Terminal consensus map of the dense graph: exp(-L_d (tf - t0))."""
    L = laplacian(dense_graph)
    # Python floats, so an overflow is caught here rather than warned about
    if not math.isfinite(float(np.abs(L).max()) * (tf - t0)):
        raise ScenarioError(f"horizon tf - t0 = {tf - t0} overflows the consensus map "
                            f"exp(-L (tf - t0)) of the dense graph")
    return expm(-L * (tf - t0))


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


def contraction_waypoints(T: np.ndarray) -> list:
    """Intermediate targets T^(k/K) for a strongly contracting symmetric
    positive definite T.

    Shooting over the whole horizon is exponentially ill-conditioned once
    det(T) is many orders of magnitude below 1; routing through matrix-power
    waypoints keeps every segment's contraction below e^-MAX_LOG_CONTRACTION.
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
    if shrink <= MAX_LOG_CONTRACTION:
        return []
    evals, evecs = np.linalg.eigh(T)
    if evals.min() <= 0.0:
        return []
    K = int(np.ceil(shrink / MAX_LOG_CONTRACTION))
    return [evecs @ np.diag(evals ** (k / K)) @ evecs.T for k in range(1, K)]


def default_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded random state with the mean removed (agreement error of a
    constant vector is identically zero and uninformative)."""
    xi = np.random.default_rng(seed).standard_normal(n)
    return xi - xi.mean()


def _run(prob: BvpProblem, waypoints, xi: np.ndarray) -> ScenarioReport:
    """Solve through the waypoints and replay the schedule on xi."""
    sol = solve_with_waypoints(prob, waypoints)
    schedules = [seg.schedule for seg in sol.segments()]
    grid, xs = propagate_state_through(schedules, xi, simulation_steps(schedules[0]))
    return ScenarioReport(grid=grid, node_states=xs, xi=xi, target=prob.target, solution=sol)


def run_densify(s: DensifyScenario, max_iter: int = 300, **settings) -> ScenarioReport:
    """Solve the densification BVP and compare three agreement-error curves:
    plain sparse consensus, plain dense consensus, and the synthesized run.

    A dense target contracts by e^-tr(L_d)dt, so for more than a few nodes
    it is routed through matrix-power waypoints (see contraction_waypoints);
    the iteration budget default is sized for those segment solves. The
    horizon and the other solver settings default to BvpProblem's.
    """
    n = s.sparse_graph.n
    # the target depends on the horizon, which BvpProblem checks and defaults
    prob = BvpProblem(graph=s.sparse_graph, target=np.eye(n), max_iter=max_iter, **settings)
    T = densification_target(s.dense_graph, prob.t0, prob.tf)
    prob = replace(prob, target=T)
    # drawn once BvpProblem has checked the seed
    xi = default_initial_state(n, prob.seed) if s.initial_state is None else s.initial_state
    report = _run(prob, contraction_waypoints(T), xi)

    # plain consensus runs share the synthesized run's (possibly segmented) grid
    total_steps = report.grid.size - 1
    curves = {}
    for name, g in (("err_sparse", s.sparse_graph), ("err_dense", s.dense_graph)):
        sched = constant_schedule(-laplacian(g), prob.t0, prob.tf, mask(g))
        curves[name] = propagate_state(sched, xi, total_steps)[1]
    curves["err_synth"] = report.node_states
    report.errors = {name: np.array([agreement_error(x, xi) for x in xs])
                     for name, xs in curves.items()}
    return report


def run_swap(s: SwapScenario, **settings) -> ScenarioReport:
    """Build the swap permutation, solve through the waypoints, and execute
    the schedule on the initial node values. The horizon and the solver
    settings default to BvpProblem's."""
    n = s.graph.n
    waypoints = list(s.waypoints)
    if not waypoints and n == 4 and set(map(tuple, map(sorted, s.pairs))) == {(1, 2), (3, 4)}:
        waypoints = [SWAP_WAYPOINT_4]
    xi = np.arange(1.0, n + 1.0) if s.initial_state is None else s.initial_state
    prob = BvpProblem(graph=s.graph, target=swap_target(n, s.pairs), **settings)
    return _run(prob, waypoints, xi)
