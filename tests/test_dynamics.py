"""Integrator, schedules, matrix exponential, and dense linear algebra."""

import numpy as np
import pytest
import scipy.linalg

import netxform as nx
from netxform.dynamics import (DynamicsError, determinant, expm,
                               integrate_transition, liouville_residual,
                               propagate_state, simulation_steps, solve_linear)
from netxform.graph import InputError

from conftest import SWAP_TARGET, single_node_average_map


def random_conforming_schedule(rng):
    """Seeded smooth schedule on a small random connected graph.

    The grid is uniform with an even interval count, so the exact midpoint is
    a grid point (the composition property is tested across it).
    """
    n = int(rng.integers(2, 6))
    builders = [nx.path_graph, nx.complete_graph, nx.star_graph]
    g = builders[int(rng.integers(0, len(builders)))](n)
    msk = g.mask
    grid = np.linspace(0.0, 1.0, 9)
    W_seq = np.array([np.where(msk, rng.uniform(-1.0, 1.0, (n, n)), 0.0) for _ in grid])
    return nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)


# ---------------------------------------------------------------------------
# determinant / solve_linear


def test_determinant_identity_and_permutations():
    assert determinant(np.eye(3)) == 1.0
    assert determinant(SWAP_TARGET) == 1.0
    transposition = np.eye(2)[[1, 0]]
    assert determinant(transposition) == -1.0


def test_determinant_single_node_average_map_exact():
    assert determinant(single_node_average_map(4)) == 0.25


def test_determinant_singular_matrix():
    assert determinant(np.ones((3, 3))) == 0.0


def test_determinant_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        assert abs(determinant(A) - np.linalg.det(A)) < 1e-10


def test_determinant_is_the_same_under_any_relabelling():
    # P T P^T has the same exact det as T, and det is that value correctly rounded
    rng = np.random.default_rng(5)
    for k in range(500):
        n = 3 + k % 4
        T = rng.standard_normal((n, n))
        perm = rng.permutation(n)
        assert determinant(T[np.ix_(perm, perm)]) == determinant(T)


def test_solve_linear_vector_and_matrix():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=4)
    assert np.abs(A @ solve_linear(A, b) - b).max() < 1e-10
    B = rng.normal(size=(4, 2))
    assert np.abs(A @ solve_linear(A, B) - B).max() < 1e-10


def test_solve_linear_rejects_singular():
    with pytest.raises(DynamicsError):
        solve_linear(np.ones((2, 2)), np.ones(2))


# ---------------------------------------------------------------------------
# expm


def test_expm_zero_and_diagonal():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    out = expm(np.diag([1.0, -2.0]))
    assert np.abs(out - np.diag([np.e, np.exp(-2.0)])).max() < 1e-14


def test_expm_two_node_consensus_closed_form():
    L = nx.laplacian(nx.complete_graph(2))
    got = expm(-L)
    a = (1 + np.exp(-2.0)) / 2
    b = (1 - np.exp(-2.0)) / 2
    assert np.abs(got - [[a, b], [b, a]]).max() < 1e-14


def test_expm_matches_scipy_oracle():
    rng = np.random.default_rng(2)
    for scale in (0.3, 3.0, 30.0):
        A = rng.normal(size=(5, 5)) * scale / 5
        assert np.abs(expm(A) - scipy.linalg.expm(A)).max() \
            < 1e-12 * max(np.abs(scipy.linalg.expm(A)).max(), 1.0)


def test_expm_rejects_non_finite():
    with pytest.raises(DynamicsError):
        expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# schedules


def test_schedule_rejects_off_pattern_entries():
    msk = nx.path_graph(3).mask
    W = np.ones((2, 3, 3))
    with pytest.raises(InputError):
        nx.WeightSchedule(grid=np.array([0.0, 1.0]), W_seq=W, mask=msk)


def test_schedule_rejects_bad_grid():
    msk = nx.path_graph(2).mask
    W = np.zeros((2, 2, 2))
    with pytest.raises(InputError):
        nx.WeightSchedule(grid=np.array([1.0, 0.0]), W_seq=W, mask=msk)
    with pytest.raises(InputError):
        nx.WeightSchedule(grid=np.array([0.0]), W_seq=W[:1], mask=msk)


@pytest.mark.parametrize("grid, ok", [
    ([0.0, 0.5, 0.5, 1.0], True),        # one join
    ([0.0, 0.5, 0.2, 1.0], False),       # a time that goes backwards
    ([0.0, 0.5, 0.5, 0.5, 1.0], False),  # two joins in a row
    ([0.0, 0.0, 0.5, 1.0], False),       # a join at the start
    ([0.0, 0.5, 1.0, 1.0], False),       # a join at the end
])
def test_schedule_join_rules(grid, ok):
    msk = nx.build_graph(1, []).mask
    W_seq = np.arange(len(grid), dtype=float).reshape(-1, 1, 1)
    if not ok:
        with pytest.raises(InputError):
            nx.WeightSchedule(grid=np.array(grid), W_seq=W_seq, mask=msk)
        return
    pieces = nx.WeightSchedule(grid=np.array(grid), W_seq=W_seq, mask=msk).pieces()
    assert [p.grid.tolist() for p in pieces] == [[0.0, 0.5], [0.5, 1.0]]
    assert [p.W_seq.ravel().tolist() for p in pieces] == [[0.0, 1.0], [2.0, 3.0]]


def test_schedule_interpolation_is_linear_and_clamped():
    msk = nx.complete_graph(2).mask
    W_seq = np.array([np.zeros((2, 2)), np.ones((2, 2))])
    sched = nx.WeightSchedule(grid=np.array([0.0, 1.0]), W_seq=W_seq, mask=msk)
    assert np.abs(sched.W_at(0.5) - 0.5).max() < 1e-15
    assert not sched.W_at(-1.0).any()
    assert np.all(sched.W_at(2.0) == 1.0)


# ---------------------------------------------------------------------------
# integration


def test_integrate_zero_schedule_is_identity():
    msk = nx.path_graph(3).mask
    sched = nx.constant_schedule(np.zeros((3, 3)), 0.0, 1.0, msk)
    traj = integrate_transition(sched, 50)
    assert np.array_equal(traj.X_seq[0], np.eye(3))
    assert np.abs(traj.X_seq[-1] - np.eye(3)).max() == 0.0


def test_integrate_scalar_exponential():
    msk = nx.build_graph(1, []).mask
    sched = nx.constant_schedule(np.array([[np.log(2.0)]]), 0.0, 1.0, msk)
    assert abs(integrate_transition(sched, 200).X_seq[-1][0, 0] - 2.0) < 1e-10


def test_integrate_rotation_quarter_turn():
    msk = nx.complete_graph(2).mask
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sched = nx.constant_schedule(W, 0.0, np.pi / 2, msk)
    got = integrate_transition(sched, 400).X_seq[-1]
    assert np.abs(got - [[0.0, 1.0], [-1.0, 0.0]]).max() < 1e-10
    assert np.abs(got - scipy.linalg.expm(W * np.pi / 2)).max() < 1e-10


def test_integrate_reports_positive_determinants():
    rng = np.random.default_rng(3)
    sched = random_conforming_schedule(rng)
    traj = integrate_transition(sched, 200)
    assert np.all(traj.dets > 0.0)


def test_integrate_names_the_first_time_det_rounds_to_zero():
    # X(t) is about 0.27^k I after k steps: det X is positive, but below the
    # smallest float from step 114 on
    sched = nx.constant_schedule(-320.0 * np.eye(5), 0.0, 1.0, nx.complete_graph(5).mask)
    with pytest.raises(DynamicsError) as info:
        integrate_transition(sched, 200)
    assert str(info.value) == ("integrate_transition: det X(t) = 0.0 is not a positive float "
                               "at t = 0.5700000000000001")


def test_propagate_state_matches_transition_action():
    rng = np.random.default_rng(4)
    sched = random_conforming_schedule(rng)
    xi = rng.normal(size=sched.n)
    xi /= np.linalg.norm(xi)
    _, xs = propagate_state(sched, xi, 200)
    final = integrate_transition(sched, 200).X_seq[-1]
    assert np.linalg.norm(xs[-1] - final @ xi) < 1e-8


def test_propagate_zero_state_stays_zero():
    sched = random_conforming_schedule(np.random.default_rng(5))
    _, xs = propagate_state(sched, np.zeros(sched.n), 50)
    assert not xs.any()


def test_propagate_matrix_start_is_the_transition():
    # one replay serves both: from the identity it gives integrate_transition's run
    rng = np.random.default_rng(8)
    sched = random_conforming_schedule(rng)
    joined = nx.WeightSchedule(grid=np.concatenate([sched.grid, sched.grid + 1.0]),
                               W_seq=np.concatenate([sched.W_seq, -sched.W_seq]),
                               mask=sched.mask)
    traj = integrate_transition(joined, 30)
    grid, X_seq = propagate_state(joined, np.eye(joined.n), 30)
    assert grid.tobytes() == traj.grid.tobytes()
    assert X_seq.tobytes() == traj.X_seq.tobytes()


def test_propagate_state_rejects_bad_start_shapes():
    sched = random_conforming_schedule(np.random.default_rng(9))
    n = sched.n
    for shape in [(n + 1,), (n, n + 1)]:
        with pytest.raises(InputError, match=rf"\({n},\) or \({n}, {n}\)"):
            propagate_state(sched, np.ones(shape), 10)


def test_replay_rejects_steps_below_one():
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, nx.path_graph(2).mask)
    with pytest.raises(InputError, match="steps must be >= 1"):
        propagate_state(sched, np.ones(2), 0)
    with pytest.raises(InputError, match="steps must be >= 1"):
        integrate_transition(sched, 0)


def test_replay_takes_whole_steps_of_any_numeric_type():
    sched = random_conforming_schedule(np.random.default_rng(10))
    grid, xs = propagate_state(sched, np.ones(sched.n), 30)
    for steps in (np.float64(30.0), np.int64(30), 30.0):
        g, x = propagate_state(sched, np.ones(sched.n), steps)
        assert g.tobytes() == grid.tobytes() and x.tobytes() == xs.tobytes()


def test_propagate_state_chains_pieces():
    msk = nx.build_graph(1, []).mask
    sched = nx.WeightSchedule(grid=np.array([0.0, 0.5, 0.5, 1.0]),
                              W_seq=np.full((4, 1, 1), np.log(2.0)), mask=msk)
    grid, xs = propagate_state(sched, np.array([1.0]), 100)
    assert np.all(np.diff(grid) > 0)
    assert grid.size == 201 and grid[100] == 0.5
    assert abs(xs[-1, 0] - 2.0) < 1e-10


def test_liouville_residual_zero_and_constant():
    msk = nx.build_graph(1, []).mask
    zero = nx.constant_schedule(np.zeros((1, 1)), 0.0, 1.0, msk)
    assert liouville_residual(integrate_transition(zero, 50), zero) == 0.0
    const = nx.constant_schedule(np.array([[0.7]]), 0.0, 1.0, msk)
    assert liouville_residual(integrate_transition(const, 200), const) < 1e-8


def test_liouville_residual_random_schedule():
    rng = np.random.default_rng(6)
    msk = nx.complete_graph(4).mask
    grid = np.linspace(0.0, 1.0, 9)
    W_seq = np.array([np.where(msk, rng.uniform(-1, 1, (4, 4)), 0.0) for _ in grid])
    sched = nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)
    assert liouville_residual(integrate_transition(sched, 400), sched) < 1e-6


def test_liouville_residual_takes_each_side_of_a_join():
    # W = 0 on [0, 0.5], then W = 1 on [0.5, 1]: the trace jumps at the join
    msk = nx.build_graph(1, []).mask
    sched = nx.WeightSchedule(grid=np.array([0.0, 0.5, 0.5, 1.0]),
                              W_seq=np.array([0.0, 0.0, 1.0, 1.0]).reshape(4, 1, 1), mask=msk)
    traj = integrate_transition(sched, 100)
    assert abs(traj.X_seq[-1][0, 0] - np.exp(0.5)) < 1e-10
    assert liouville_residual(traj, sched) < 1e-9


def test_convergence_is_fourth_order():
    rng = np.random.default_rng(7)
    g = nx.path_graph(3)
    msk = g.mask
    grid = np.linspace(0.0, 1.0, 26)
    W_seq = np.array([np.where(msk, rng.uniform(-1, 1, (3, 3)), 0.0) for _ in grid])
    sched = nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)
    ref = integrate_transition(sched, 10000).X_seq[-1]
    errs = [np.linalg.norm(integrate_transition(sched, s).X_seq[-1] - ref)
            for s in (50, 100, 200)]
    for k in range(2):
        assert abs(np.log2(errs[k] / errs[k + 1]) - 4.0) < 0.3


def test_simulation_steps_alignment():
    msk = nx.path_graph(2).mask
    fine = nx.WeightSchedule(grid=np.linspace(0.0, 1.0, 201),
                             W_seq=np.zeros((201, 2, 2)), mask=msk)
    assert simulation_steps(fine) == 100
    coarse = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    assert simulation_steps(coarse) == 200
    # every piece takes the largest count any piece asks for, here the later one's
    grid = np.concatenate([[0.0, 1.0], np.linspace(1.0, 2.0, 2001)])
    mixed = nx.WeightSchedule(grid=grid, W_seq=np.zeros((grid.size, 2, 2)), mask=msk)
    assert simulation_steps(mixed) == 1000
