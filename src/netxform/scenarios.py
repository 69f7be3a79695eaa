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

from .dynamics import DynamicsError, constant_schedule, expm, propagate_state, simulation_steps
from .graph import Graph, InputError, _vertex_count, laplacian, node_pairs, numeric_array
from .optimal_control import BvpProblem, Solution, solve_bvp, solve_with_waypoints

# The 4-node cyclic waypoint used for the (1,2)(3,4) swap: it keeps the
# straight-line homotopy of each half away from singular matrices.
SWAP_WAYPOINT_4 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

# Largest contraction -log det of one arc of the densification solve.
MAX_LOG_CONTRACTION = 4.0


@dataclass
class ScenarioReport:
    """A solved scenario and its schedule replayed on the initial node values,
    which are node_states[0]. `errors` maps a column name to a curve on `grid`."""

    grid: np.ndarray
    node_states: np.ndarray
    solution: Solution
    errors: dict = field(default_factory=dict)


def densification_target(dense_graph: Graph, t0: float, tf: float) -> np.ndarray:
    """Terminal consensus map of the dense graph: exp(-L_d (tf - t0))."""
    L = laplacian(dense_graph)
    try:
        # expm rejects an -L (tf - t0) that overflowed, or that holds 0 * inf
        with np.errstate(over="ignore", invalid="ignore"):
            return expm(-L * (tf - t0))
    except DynamicsError as exc:
        raise InputError(f"horizon tf - t0 = {tf - t0} overflows the consensus map "
                         f"exp(-L (tf - t0)) of the dense graph") from exc


def agreement_error(x: np.ndarray, x0: np.ndarray):
    """Distance from x, or from each vector of a stack (..., n), to the vector
    holding the average of the initial state x0: a float for one vector, an
    array for a stack. Each distance is the square root of the dot product
    d . d that np.linalg.norm takes of one vector, so its bits are the same."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x.shape[-1:] != x0.shape:
        raise InputError("agreement_error: dimension mismatch")
    d = x - np.mean(x0)
    err = np.sqrt(np.matmul(d[..., None, :], d[..., :, None]))[..., 0, 0]
    return float(err) if x.ndim == 1 else err


def swap_target(n: int, pairs) -> np.ndarray:
    """Permutation matrix exchanging each listed pair of node values. The pairs
    hold whole node numbers in 1..n, and no two share a node; anything else
    raises InputError, as does anything but a whole n >= 1."""
    n = _vertex_count(n, "vertex count")
    T, seen = np.eye(n), set()
    for (a, b) in node_pairs(pairs, "swap pairs", n):
        if a == b or a in seen or b in seen:
            raise InputError("swap pairs must be disjoint")
        seen.update((a, b))
        T[[a - 1, b - 1]] = T[[b - 1, a - 1]]
    return T


def default_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded random state with the mean removed (agreement error of a
    constant vector is identically zero and uninformative)."""
    xi = np.random.default_rng(seed).standard_normal(n)
    return xi - xi.mean()


def run_densify(sparse_graph: Graph, dense_graph: Graph, initial_state=None,
                max_iter: int = 300, **settings) -> ScenarioReport:
    """Solve the densification BVP and compare three agreement-error curves:
    plain sparse consensus, plain dense consensus, and the synthesized run.

    The dense target exp(-L_d tau), tau = tf - t0, has det e^-tr(L_d)tau,
    so the schedule is K equal arcs of exp(-L_d tau/K), with K just large
    enough that no arc contracts by more than e^-MAX_LOG_CONTRACTION. The
    extremal system is autonomous, so the K arcs are one problem: it is
    solved once, on [times[0], times[1]] of times = linspace(t0, tf, K + 1),
    and copied onto each other share [times[k], times[k+1]]. The iteration
    budget default is sized for that arc; the horizon and the other solver
    settings default to BvpProblem's. The feasibility gate rejects a
    disconnected sparse graph; the dense graph may be disconnected, since
    its target has a positive determinant either way.
    """
    n = sparse_graph.n
    if n != dense_graph.n:
        raise InputError("sparse and dense graphs must share the vertex set")
    if initial_state is not None:
        initial_state = numeric_array(initial_state, "initial_state", (n,))
    # the target depends on the horizon, which BvpProblem checks and defaults
    prob = BvpProblem(graph=sparse_graph, target=np.eye(n), max_iter=max_iter, **settings)
    T = densification_target(dense_graph, prob.t0, prob.tf)
    # drawn once BvpProblem has checked the seed
    xi = default_initial_state(n, prob.seed) if initial_state is None else initial_state
    tau = prob.tf - prob.t0
    # one arc at least, though a 1-node graph has tr(L_d) = 0
    K = max(1, math.ceil(np.trace(laplacian(dense_graph)) * tau / MAX_LOG_CONTRACTION))
    times = np.linspace(prob.t0, prob.tf, K + 1)
    # the feasibility gate sees the arc map, with det >= e^-MAX_LOG_CONTRACTION, and
    # not T: det T = e^-tr(L_d) tau > 0, but its float sign is rounding at long horizons
    arc = solve_bvp(replace(prob, target=densification_target(dense_graph, 0.0, tau / K),
                            tf=times[1]))
    arcs = [arc] + [arc.moved_to(a, b) for a, b in zip(times[1:-1], times[2:])]
    sol = Solution(arcs=arcs, target=T)
    sched = sol.schedule
    grid, states = propagate_state(sched, xi, simulation_steps(sched))

    # plain consensus runs share the synthesized run's (possibly segmented) grid
    curves = {}
    for name, g in (("err_sparse", sparse_graph), ("err_dense", dense_graph)):
        sched = constant_schedule(-laplacian(g), prob.t0, prob.tf, g.mask)
        curves[name] = propagate_state(sched, xi, grid.size - 1)[1]
    curves["err_synth"] = states
    with np.errstate(over="ignore", invalid="ignore"):  # squared distances above ~1e308
        errors = {name: agreement_error(xs, xi) for name, xs in curves.items()}
    if not all(np.isfinite(err).all() for err in errors.values()):
        raise InputError("initial_state is too large: its agreement errors leave the float range")
    return ScenarioReport(grid=grid, node_states=states, solution=sol, errors=errors)


def run_swap(graph: Graph, pairs, waypoints=(), initial_state=None,
             **settings) -> ScenarioReport:
    """Build the swap permutation, solve through the waypoints, and execute
    the schedule on the initial node values. The horizon and the solver
    settings default to BvpProblem's."""
    n = graph.n
    T = swap_target(n, pairs)
    xi = (np.arange(1.0, n + 1.0) if initial_state is None
          else numeric_array(initial_state, "initial_state", (n,)))
    waypoints = list(waypoints)
    # the swap (1 2)(3 4) on 4 nodes, however its pairs are listed
    if not waypoints and np.array_equal(T, np.eye(4)[[1, 0, 3, 2]]):
        waypoints = [SWAP_WAYPOINT_4]
    prob = BvpProblem(graph=graph, target=T, **settings)
    sol = solve_with_waypoints(prob, waypoints)
    sched = sol.schedule
    grid, states = propagate_state(sched, xi, simulation_steps(sched))
    return ScenarioReport(grid=grid, node_states=states, solution=sol)
