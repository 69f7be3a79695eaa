"""Oracles that do not come from the solver's own history, checked on every
converged solve of the session fixtures: the exact symmetries of the
extremal system and the energy floor.

Symmetries. Along an extremal from (I, lam0) to T, lam(t) = X(t)^-T lam0.
Then Y(s) = X(tf - s) T^-1 solves Y' = -W(tf - s) Y from I to T^-1 with
costate -T^-T lam0 T^T; X^-T solves Z' = -W^T Z from I to T^-T with
costate -lam0^T; and composing the two reaches T^T from T lam0^T T^-1. A
graph automorphism P, such as i -> n + 1 - i on a path, maps (T, lam0) to
(P T P^T, P lam0 P^T). Every image schedule lies on the same pattern and
has the same energy J.

Energy floor. Along X' = W X, the log singular values of X move at rates
u_i^T W u_i, whose squares sum to at most |W|_F^2; by Cauchy-Schwarz,
J >= |log sigma(T)|^2 / (2 tau) on a horizon tau.
"""

from dataclasses import replace

import numpy as np
import pytest

import netxform as nx
from netxform.optimal_control import BvpProblem, _build_solution

# RK4 maps an extremal onto its time-reversed images only up to its
# truncation error: at the solver's 200 steps, densify's arc reaches J of
# its T^-1 and T^T images to 7.3e-8 relative only, and the gap shrinks as
# h^4 (3.1e-9 at 400 steps, 1.5e-10 at 800). So the images, and the solve's
# own costate, are shot with REFINE RK4 steps per solver step.
REFINE = 4

# each on a graph that reversal maps onto itself: path1, path3, path5, cycle4
SOLVES = ["scalar_solution", "path3_solution", "densify_report", "swap_report"]


@pytest.fixture(params=SOLVES)
def solution(request):
    """A converged solve: a one-arc ExtremalSolution or a scenario's Solution."""
    sol = request.getfixturevalue(request.param)
    return getattr(sol, "solution", sol)


def _arcs(sol) -> list:
    return sol.arcs if isinstance(sol, nx.Solution) else [sol]


def _reached(sol):
    """(X(tf), J) of an arc or of a whole Solution."""
    if isinstance(sol, nx.Solution):
        return sol.transition()[1][-1], sol.to_json_dict()["cost"]
    return sol.X_seq[-1], sol.cost


def _graph(msk: np.ndarray):
    upper = zip(*np.nonzero(np.triu(msk, 1)))
    return nx.build_graph(len(msk), [(int(i) + 1, int(j) + 1) for i, j in upper])


def _images(T: np.ndarray, lam0: np.ndarray, msk: np.ndarray) -> list:
    """(name, target, costate) of each exact map of the extremal (T, lam0)."""
    Ti = np.linalg.inv(T)
    images = [("inverse", Ti, -Ti.T @ lam0 @ T.T), ("inverse transpose", Ti.T, -lam0.T),
              ("transpose", T.T, T @ lam0.T @ Ti)]
    P = np.eye(len(T))[::-1]  # i -> n + 1 - i
    if np.array_equal(P @ msk @ P.T, msk):  # an automorphism of the graph
        images.append(("reversal", P @ T @ P.T, P @ lam0 @ P.T))
    return images


def test_symmetric_images_of_a_solve_keep_its_energy(solution):
    for arc in _arcs(solution):
        assert arc.converged
        grid = arc.schedule.grid
        prob = BvpProblem(graph=_graph(arc.schedule.mask), target=arc.X_seq[-1],
                          t0=float(grid[0]), tf=float(grid[-1]),
                          steps=REFINE * (grid.size - 1))
        extremal = _build_solution(prob, arc.lambda0, 0, 0, False)
        images = _images(extremal.X_seq[-1], arc.lambda0, arc.schedule.mask)
        for name, target, lam0 in images:
            assert nx.check_feasible(prob.graph, target).feasible, name
            image = _build_solution(replace(prob, target=target), lam0, 0, 0, False)
            assert image.residual_norm <= 1e-6 * max(1.0, np.linalg.norm(target)), name
            assert abs(image.cost - extremal.cost) <= 1e-8 * extremal.cost, name


def test_converged_energy_is_above_the_floor(solution):
    # the whole solve, then each of its arcs on its own share of the horizon
    for sol in [solution, *_arcs(solution)]:
        grid = sol.schedule.grid
        final, J = _reached(sol)
        sigma = np.linalg.svd(final, compute_uv=False)
        floor = np.sum(np.log(sigma) ** 2) / (2.0 * (grid[-1] - grid[0]))
        assert sol.converged and J >= floor * (1.0 - 1e-9)
