"""Densification and swap scenario runs and their report invariants."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import netxform as nx
from netxform import scenarios
from netxform.optimal_control import InfeasibleError
from netxform.graph import InputError
from netxform.scenarios import (MAX_LOG_CONTRACTION, agreement_error,
                                default_initial_state, densification_target,
                                swap_target)


# ---------------------------------------------------------------------------
# building blocks


def test_densification_target_empty_horizon_is_identity():
    T = densification_target(nx.complete_graph(3), 1.0, 1.0)
    assert np.abs(T - np.eye(3)).max() < 1e-15


def test_densification_target_two_node_closed_form():
    T = densification_target(nx.complete_graph(2), 0.0, 1.0)
    a = (1 + np.exp(-2.0)) / 2
    b = (1 - np.exp(-2.0)) / 2
    assert np.abs(T - [[a, b], [b, a]]).max() < 1e-14


def test_densification_target_rows_sum_to_one():
    T = densification_target(nx.complete_graph(5), 0.0, 1.0)
    assert np.abs(T @ np.ones(5) - 1.0).max() < 1e-12
    assert np.array_equal(T, T.T) or np.abs(T - T.T).max() < 1e-14


def test_densification_target_infinite_horizon_raises_input_error():
    # -L * inf holds 0 * inf = nan, which expm rejects; no RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="tf - t0"):
            densification_target(nx.path_graph(3), 0.0, np.inf)


def test_agreement_error_examples():
    x0 = np.array([1.0, 3.0])
    assert agreement_error(np.array([2.0, 2.0]), x0) == 0.0
    assert abs(agreement_error(x0, x0) - np.sqrt(2.0)) < 1e-15
    with pytest.raises(InputError):
        agreement_error(np.zeros(2), np.zeros(3))


def test_agreement_error_of_a_stack_is_bitwise_the_per_row_norm():
    # whole curves at once, as run_densify passes them: each distance must be
    # the bits np.linalg.norm gives row by row, or errors.csv would move. The
    # magnitudes take the squares down to subnormals and up past overflow.
    rng = np.random.default_rng(19)
    for n in range(2, 13):
        for scale in (1e-160, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e154):
            xs = rng.standard_normal((2, 50, n)) * scale * rng.uniform(0.5, 2.0, (2, 50, 1))
            x0 = rng.standard_normal(n) * scale
            with np.errstate(over="ignore", under="ignore"):
                errs = agreement_error(xs, x0)
                ref = [[float(np.linalg.norm(x - np.mean(x0))) for x in curve] for curve in xs]
                one = agreement_error(xs[0, 0], x0)
            assert errs.shape == (2, 50)
            assert errs.tobytes() == np.array(ref).tobytes()
            assert isinstance(one, float) and one == ref[0][0]


def test_swap_target_matrix():
    T = swap_target(4, [(1, 2), (3, 4)])
    assert np.array_equal(T @ np.array([1.0, 2.0, 3.0, 4.0]), [2.0, 1.0, 4.0, 3.0])
    assert np.array_equal(swap_target(3, []), np.eye(3))


@pytest.mark.parametrize("n, pairs, text", [
    (3, [(0, 1)], "swap pairs (0,1) out of range for n=3"),
    (4, [(1, 5)], "swap pairs (1,5) out of range for n=4"),
    (4, [(1, 1)], "swap pairs must be disjoint"),
    (4, [(1, 2), (2, 3)], "swap pairs must be disjoint"),
    (4, [(1.5, 2)], "swap pairs must hold whole numbers"),
    (-1, [], "vertex count must be >= 1, got -1"),
    (0, [], "vertex count must be >= 1, got 0"),
    (2.5, [(1, 2)], "vertex count must hold whole numbers"),
], ids=["node-0", "node-5", "same-node", "shared-node", "not-whole", "n-negative", "n-0",
        "n-not-whole"])
def test_swap_target_rejects_bad_pairs(n, pairs, text):
    with pytest.raises(InputError) as info:
        swap_target(n, pairs)
    assert str(info.value) == text


def test_default_initial_state_is_centered_and_seeded():
    xi = default_initial_state(5, 0)
    assert abs(xi.mean()) < 1e-15
    assert np.array_equal(xi, default_initial_state(5, 0))


# ---------------------------------------------------------------------------
# densification arcs


def _densify_arc(monkeypatch, dense, **settings):
    """The one arc problem that run_densify hands to the solver, caught
    before it is solved; the sparse graph is a path."""
    seen = {}

    class Caught(Exception):
        pass

    def catch(prob, initial_guess=None):
        seen["prob"] = prob
        raise Caught

    def divide(prob, waypoints):
        raise AssertionError("densify divided waypoints back into arcs")

    monkeypatch.setattr(scenarios, "solve_bvp", catch)
    monkeypatch.setattr(scenarios, "solve_with_waypoints", divide)
    with pytest.raises(Caught):
        nx.run_densify(nx.path_graph(dense.n), dense, **settings)
    return seen["prob"]


@pytest.mark.parametrize("dense, t0, tf, K", [
    (nx.complete_graph(5), 0.0, 1.0, 5),  # tr(L) tau = 20: the curated densify
    (nx.complete_graph(3), 1.0, 1.5, 1),  # 3: mild, so one arc
    (nx.complete_graph(3), 0.0, 2.0, 3),  # 12
    (nx.cycle_graph(6), 0.5, 3.0, 8),     # 30
    (nx.star_graph(6), 0.0, 0.9, 3),      # 9
])
def test_densify_waypoints_follow_the_dense_flow(monkeypatch, dense, t0, tf, K):
    prob = _densify_arc(monkeypatch, dense, t0=t0, tf=tf)
    arc = prob.target
    L = nx.laplacian(dense)
    tau = tf - t0
    # one arc of the dense flow over tau / K, whose K-th power is T
    assert prob.t0 == t0
    assert round(tau / (prob.tf - prob.t0)) == K
    assert np.abs(arc - scipy.linalg.expm(-L * tau / K)).max() < 1e-12
    T = densification_target(dense, t0, tf)
    assert np.abs(np.linalg.matrix_power(arc, K) - T).max() < 1e-12
    # it contracts by at most e^-MAX_LOG_CONTRACTION
    sign, logdet = np.linalg.slogdet(arc)
    assert sign > 0 and -logdet <= MAX_LOG_CONTRACTION + 1e-9
    # and one arc fewer would not do
    assert np.trace(L) * tau > MAX_LOG_CONTRACTION * (K - 1)


def test_densify_one_node_is_one_arc():
    # tr(L_d) = 0 asks for no arc at all; the solve still has one
    g = nx.build_graph(1, [])
    rep = nx.run_densify(g, g)
    assert rep.solution.converged and len(rep.solution.segments()) == 1
    assert rep.node_states[-1] == pytest.approx(rep.node_states[0])


@pytest.mark.parametrize("dense, tau", [
    (nx.complete_graph(2), 26.0),  # 13 arcs
    (nx.path_graph(3), 15.0),      # 15 arcs
    (nx.cycle_graph(4), 10.5),     # 21 arcs
    (nx.complete_graph(3), 13.0),  # 20 arcs; the float det of T is 0
    (nx.complete_graph(5), 10.0),  # 50 copies of the densify5 arc
])
def test_densify_long_horizon_follows_the_dense_flow(dense, tau):
    # the cumulative waypoints exp(-L_d tau k/K) of these horizons are
    # numerically singular, but the arc maps exp(-L_d tau/K) are not, and
    # the feasibility gate sees only the arc map
    rep = nx.run_densify(nx.path_graph(dense.n), dense, tf=tau)
    L = nx.laplacian(dense)
    assert rep.solution.converged
    assert len(rep.solution.segments()) == np.ceil(np.trace(L) * tau / MAX_LOG_CONTRACTION)
    want = scipy.linalg.expm(-L * tau) @ rep.node_states[0]
    assert np.linalg.norm(rep.node_states[-1] - want) < 1e-6


def test_densify_arc_newton_counts(monkeypatch):
    # the arc is solved once and repeated, so the copies spent no Newton
    # iteration, and each copy starts on the time where the one before ends
    calls = []

    def counted(prob, initial_guess=None):
        calls.append(prob)
        return nx.solve_bvp(prob, initial_guess)

    monkeypatch.setattr(scenarios, "solve_bvp", counted)
    rep = nx.run_densify(nx.path_graph(3), nx.complete_graph(3), tf=10.0)
    arcs = rep.solution.segments()
    assert len(calls) == 1
    assert [arc.iterations for arc in arcs] == [9] + [0] * 14
    assert arcs[-1].schedule.grid[-1] == 10.0
    assert all(a.schedule.grid[-1] == b.schedule.grid[0] for a, b in zip(arcs, arcs[1:]))


def test_densify_copies_lie_on_their_shares_of_the_horizon():
    # on [0, 1.8] the dense cycle4 gives four arcs, and t0 + steps h misses
    # the end of the solved first one
    rep = nx.run_densify(nx.path_graph(4), nx.cycle_graph(4), tf=1.8)
    times = np.linspace(0.0, 1.8, 5)
    arcs = rep.solution.segments()
    assert [(a.schedule.grid[0], a.schedule.grid[-1]) for a in arcs] == \
        list(zip(times[:-1], times[1:]))


def test_densify5_arcs_lie_on_the_linspace_of_their_shares(densify_report):
    # the solved first arc's RK4 grid and each copy's grid alike
    arcs = densify_report.solution.segments()
    times = np.linspace(0.0, 1.0, 6)
    assert len(arcs) == 5
    for arc, a, b in zip(arcs, times, times[1:]):
        assert arc.schedule.grid.tobytes() == np.linspace(a, b, 201).tobytes()


def test_densify_copies_are_fresh_shoots_on_their_intervals(densify_report):
    # the extremal system is autonomous: shooting the arc's costate again on
    # a copy's own interval reproduces the copy
    dense = nx.complete_graph(5)
    arcs = densify_report.solution.segments()
    arc_map = densification_target(dense, 0.0, 1.0 / len(arcs))
    for arc in arcs:
        prob = nx.BvpProblem(graph=nx.path_graph(5), target=arc_map,
                             t0=arc.schedule.grid[0], tf=arc.schedule.grid[-1])
        _, info = nx.shoot(prob, arc.lambda0)
        assert np.abs(info["X_seq"] - arc.X_seq).max() < 1e-13
        W_seq = nx.weights_from_costate(info["lambda_seq"], info["X_seq"], arc.schedule.mask)
        fresh = nx.cost(nx.WeightSchedule(grid=info["grid"], W_seq=W_seq,
                                          mask=arc.schedule.mask))
        assert abs(fresh - arc.cost) < 1e-12 * arc.cost


# ---------------------------------------------------------------------------
# scenario validation


def test_densify_rejects_mismatched_vertex_sets():
    with pytest.raises(InputError, match="vertex set"):
        nx.run_densify(nx.path_graph(3), nx.complete_graph(4))


def test_densify_disconnected_sparse_graph_is_infeasible():
    # the feasibility gate is the one connectivity check
    with pytest.raises(InfeasibleError, match="not connected"):
        nx.run_densify(nx.build_graph(3, [(1, 2)]), nx.complete_graph(3))


@pytest.mark.parametrize("n, dense_edges, K", [
    (3, [(1, 2)], 1),                  # tr(L_d) tau = 2: one arc
    (4, [(1, 2), (3, 4)], 1),          # 4
    (5, [(1, 2), (1, 3), (2, 3), (4, 5)], 2),  # 8: two arcs
])
def test_densify_disconnected_dense_graph_follows_its_flow(n, dense_edges, K):
    # exp(-L_d tau) has det e^-tr(L_d) tau > 0 whether or not the dense graph
    # is connected, so the connected sparse path reaches it
    dense = nx.build_graph(n, dense_edges)
    rep = nx.run_densify(nx.path_graph(n), dense)
    assert rep.solution.converged and len(rep.solution.segments()) == K
    want = scipy.linalg.expm(-nx.laplacian(dense)) @ rep.node_states[0]
    assert np.linalg.norm(rep.node_states[-1] - want) < 1e-6


def test_swap_scenario_rejects_bad_pairs():
    g = nx.cycle_graph(4)
    with pytest.raises(InputError, match="disjoint"):
        nx.run_swap(g, ((1, 1),))
    with pytest.raises(InputError, match="disjoint"):
        nx.run_swap(g, ((1, 2), (2, 3)))
    with pytest.raises(InputError, match="out of range"):
        nx.run_swap(g, ((1, 5),))


# ---------------------------------------------------------------------------
# end-to-end runs (the expensive solves come from session fixtures)


def test_densify_report_curves(densify_report):
    rep = densify_report
    assert rep.solution.converged
    # all three runs start from the same state, so the curves agree at t0
    assert abs(rep.errors["err_sparse"][0] - rep.errors["err_synth"][0]) < 1e-12
    assert abs(rep.errors["err_dense"][0] - rep.errors["err_synth"][0]) < 1e-12
    # the synthesized sparse network matches dense consensus at the horizon
    assert abs(rep.errors["err_synth"][-1] - rep.errors["err_dense"][-1]) < 1e-6
    assert rep.errors["err_synth"][-1] <= rep.errors["err_sparse"][-1]
    assert rep.grid.size == rep.node_states.shape[0]


def test_densify_final_state_matches_exponential_oracle(densify_report):
    rep = densify_report
    L = nx.laplacian(nx.complete_graph(5))
    xi = rep.node_states[0]
    want = scipy.linalg.expm(-L) @ xi
    assert np.linalg.norm(rep.node_states[-1] - want) < 1e-6
    assert np.linalg.norm(rep.solution.target @ xi - want) < 1e-12
    # tr(L) tau = 20 makes five arcs, and the state follows dense consensus
    # at every join too
    arcs = rep.solution.segments()
    assert len(arcs) == 5
    for arc in arcs[:-1]:
        t = arc.schedule.grid[-1]
        k = np.argmin(np.abs(rep.grid - t))
        assert abs(rep.grid[k] - t) < 1e-12
        assert np.linalg.norm(rep.node_states[k] - scipy.linalg.expm(-L * t) @ xi) < 1e-6


def test_densify_same_graph_reproduces_consensus():
    g = nx.complete_graph(2)
    rep = nx.run_densify(g, g)
    assert rep.solution.converged
    assert np.abs(rep.errors["err_synth"] - rep.errors["err_dense"]).max() < 1e-5


def test_densify_horizon_from_settings():
    dense = nx.complete_graph(3)
    rep = nx.run_densify(nx.path_graph(3), dense, t0=1.0, tf=1.5)
    assert rep.solution.converged
    assert rep.grid[0] == 1.0 and rep.grid[-1] == 1.5
    assert np.array_equal(rep.solution.target, densification_target(dense, 1.0, 1.5))


def test_swap_report(swap_report):
    rep = swap_report
    assert rep.solution.converged
    assert np.array_equal(rep.node_states[0], [1.0, 2.0, 3.0, 4.0])
    assert np.abs(rep.node_states[-1] - [2.0, 1.0, 4.0, 3.0]).max() < 1e-4
    assert np.array_equal(rep.solution.target, swap_target(4, [(1, 2), (3, 4)]))
    # two segments: through the cyclic waypoint, then on to the permutation
    assert len(rep.solution.segments()) == 2


def test_swap_segment_products_telescope(swap_report):
    segs = swap_report.solution.segments()
    composed = np.eye(4)
    for s in segs:
        composed = s.X_seq[-1] @ composed
    assert np.linalg.norm(composed - swap_report.solution.target) < 1e-7


def test_swap_no_pairs_is_identity_target():
    rep = nx.run_swap(nx.path_graph(2), ())
    assert rep.solution.converged
    assert np.abs(rep.node_states[-1] - rep.node_states[0]).max() < 1e-8


def test_curated_newton_paths(densify_run, swap_run):
    # per-arc Newton iterations and restarts, and the shoot passes, of the two
    # curated scenarios: a change to any accept/reject decision of the solver,
    # or to how its tries are grouped into passes, moves these counts
    densify = densify_run[0].solution.segments()
    assert [arc.iterations for arc in densify] == [120, 0, 0, 0, 0]
    assert [arc.restart_used for arc in densify] == [0, 0, 0, 0, 0]
    swap = swap_run[0].solution.segments()
    assert [arc.iterations for arc in swap] == [113, 11]
    assert [arc.restart_used for arc in swap] == [2, 0]
    assert (densify_run[2], swap_run[1]) == (247, 294)


def test_direct_newton_paths(scalar_run, path3_run):
    # the same pins on the direct path: iterations, restart and shoot passes of
    # criterion 3's scalar solve and of the path3 solve
    assert [(sol.iterations, sol.restart_used, passes)
            for sol, passes in (scalar_run, path3_run)] == [(4, 0, 10), (13, 0, 28)]
