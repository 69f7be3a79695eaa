"""Acceptance gate: one test per release criterion, at the stated tolerances.

The conftest hook prints a PASS/FAIL line per criterion in the terminal
summary. Criteria 3-5 share session fixtures with criterion 7, which audits
the conservation laws on every converged solve those criteria produce.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import netxform as nx
from netxform.dynamics import integrate_transition, simulation_steps
from netxform.optimal_control import hamiltonian, extremal_rhs, weights_from_costate

from conftest import (CYCLIC_WAYPOINT, SWAP_TARGET, consensus_map,
                      single_node_average_map)


def test_criterion_1_feasibility_gate():
    start = time.time()
    g3 = nx.path_graph(3)
    rep = nx.check_feasible(g3, consensus_map(3))
    assert not rep.feasible and rep.determinant == 0.0

    for n in (3, 4):
        rep = nx.check_feasible(nx.path_graph(n), single_node_average_map(n))
        assert rep.feasible and rep.determinant == 1.0 / n

    rep = nx.check_feasible(nx.cycle_graph(4), SWAP_TARGET)
    assert rep.feasible and rep.determinant == 1.0

    transposition = np.eye(4)
    transposition[[0, 1]] = transposition[[1, 0]]
    assert not nx.check_feasible(nx.cycle_graph(4), transposition).feasible
    assert time.time() - start < 1.0


def test_criterion_2_lie_layer():
    from test_lie_algebra import brute_force_closure_dimension, finite_difference_bracket
    start = time.time()

    # exhaustive antisymmetry and agreement with the general product expansion
    for n in (2, 3, 4):
        idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for a in idx:
            for b in idx:
                fa, fb = nx.IndexField(n, *a), nx.IndexField(n, *b)
                ab = nx.bracket(fa, fb)
                ba = nx.bracket(fb, fa)
                assert np.array_equal(ab.coeffs, -ba.coeffs)
                general = nx.bracket_general(
                    nx.AlgebraElement(coeffs=_unit(n, *a)),
                    nx.AlgebraElement(coeffs=_unit(n, *b)))
                assert np.array_equal(ab.coeffs, general.coeffs)

    # symbolic brackets match finite-difference brackets of the matrix fields
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        X = rng.normal(size=(n, n)) + n * np.eye(n)
        a = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        b = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        sym = nx.bracket(nx.IndexField(n, *a), nx.IndexField(n, *b)).coeffs @ X
        fd = finite_difference_bracket(n, a, b, X)
        scale = max(np.abs(sym).max(), np.abs(fd).max(), 1.0)
        assert np.abs(sym - fd).max() / scale < 1e-5

    # closure dimension: n^2 when connected, sum of block squares otherwise
    for n in range(2, 7):
        for builder in (nx.path_graph, nx.star_graph, nx.complete_graph):
            g = builder(n)
            dim = nx.generated_algebra_dimension(g)
            assert dim == n * n == brute_force_closure_dimension(g)
        if n >= 3:
            g = nx.cycle_graph(n)
            assert nx.generated_algebra_dimension(g) == n * n == brute_force_closure_dimension(g)

    disconnected = nx.build_graph(3, [(1, 2)])
    assert nx.generated_algebra_dimension(disconnected) == 5 \
        == brute_force_closure_dimension(disconnected)
    assert time.time() - start < 10.0


def _unit(n, i, j):
    U = np.zeros((n, n))
    U[i - 1, j - 1] = 1.0
    return U


def test_criterion_3_scalar_analytic_bvp(scalar_solution):
    start = time.time()
    sol = scalar_solution
    assert sol.converged
    w = sol.schedule.W_seq[:, 0, 0]
    assert np.abs(w - np.log(2.0)).max() < 1e-6
    assert abs(sol.cost - 0.5 * np.log(2.0) ** 2) < 1e-8
    assert abs(sol.lambda0[0, 0] + np.log(2.0)) < 1e-6
    assert time.time() - start < 1.0


def test_criterion_4_densification(densify_report):
    start = time.time()
    rep = densify_report
    sol = rep.solution
    T = nx.densification_target(nx.complete_graph(5), 0.0, 1.0)
    assert sol.converged
    assert sol.residual_norm < 1e-6

    # independent forward integration of the emitted schedule
    composed = np.eye(5)
    for seg in sol.segments():
        traj = integrate_transition(seg.schedule, simulation_steps(seg.schedule))
        composed = traj.X_seq[-1] @ composed
    assert np.linalg.norm(composed - T) < 1e-5

    assert rep.errors["err_synth"][-1] <= rep.errors["err_sparse"][-1]
    # fixture construction time is the dominant cost; bound the whole solve
    assert time.time() - start < 60.0


def test_criterion_4_densification_runtime(densify_run):
    rep, seconds, _ = densify_run
    assert rep.solution.converged
    assert seconds < 60.0


def test_criterion_5_swap(swap_report):
    start = time.time()
    rep = swap_report
    assert rep.solution.converged
    assert np.abs(rep.node_states[-1] - np.array([2.0, 1.0, 4.0, 3.0])).max() < 1e-4
    min_det, argmin_s = nx.homotopy_singularity_scan(SWAP_TARGET)
    assert min_det < 1e-3
    assert abs(argmin_s - 0.5) < 0.01
    # closed form of the scanned determinant: each 2x2 swap block of the
    # homotopy has determinant (1-s)^2 - s^2 = 1 - 2s
    for s in np.linspace(0.0, 1.0, 11):
        d = nx.determinant((1 - s) * np.eye(4) + s * SWAP_TARGET)
        assert abs(d - (1 - 2 * s) ** 2) < 1e-12
    assert time.time() - start < 60.0


def test_criterion_6_trajectory_invariants():
    from test_dynamics import random_conforming_schedule
    start = time.time()
    rng = np.random.default_rng(11)
    for trial in range(100):
        sched = random_conforming_schedule(rng)
        traj = integrate_transition(sched, 200)
        assert np.all(traj.dets > 0.0)
        assert nx.liouville_residual(traj, sched) < 1e-6
        # composition across a midpoint split (schedule grids contain the
        # midpoint, so the restricted sub-schedules reproduce W(t) exactly)
        mid = 0.5 * (sched.t0 + sched.tf)
        first = _integrate_between(sched, sched.t0, mid, 100)
        second = _integrate_between(sched, mid, sched.tf, 100)
        assert np.linalg.norm(second @ first - traj.X_seq[-1]) < 1e-8

    # convergence order against a fine reference, sampled on a schedule whose
    # grid every tested step count subdivides evenly
    order = _observed_order(np.random.default_rng(13))
    assert abs(order - 4.0) < 0.3
    assert time.time() - start < 30.0


def _integrate_between(sched, a, b, steps):
    keep = (sched.grid >= a - 1e-12) & (sched.grid <= b + 1e-12)
    sub = nx.WeightSchedule(grid=sched.grid[keep], W_seq=sched.W_seq[keep],
                            mask=sched.mask)
    return integrate_transition(sub, steps).X_seq[-1]


def _observed_order(rng):
    g = nx.path_graph(4)
    msk = g.mask
    grid = np.linspace(0.0, 1.0, 26)
    W_seq = np.array([np.where(msk, rng.uniform(-1.0, 1.0, (4, 4)), 0.0) for _ in grid])
    sched = nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)
    ref = integrate_transition(sched, 10000).X_seq[-1]
    errs = [np.linalg.norm(integrate_transition(sched, s).X_seq[-1] - ref)
            for s in (50, 100, 200, 400)]
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(3)]
    return float(np.mean(rates))


def test_criterion_7_conservation(scalar_solution, densify_report, swap_report):
    solves = ([scalar_solution]
              + densify_report.solution.segments()
              + swap_report.solution.segments())
    for sol in solves:
        assert sol.converged
        lamX = np.einsum("kji,kjl->kil", sol.lambda_seq, sol.X_seq)
        scale = max(np.abs(lamX[0]).max(), 1e-30)
        assert np.abs(lamX - lamX[0]).max() / scale < 1e-7

        # so M = lam X^T = X^-T (X^T lam) X^T is isospectral along the arc
        M = sol.lambda_seq @ np.swapaxes(sol.X_seq, 1, 2)
        coeffs = np.array([np.poly(Mk) for Mk in M])
        assert np.abs(coeffs - coeffs[0]).max() / np.abs(coeffs[0]).max() < 1e-6

        norms = np.linalg.norm(sol.schedule.W_seq, axis=(1, 2))
        if norms.mean() > 0.0:
            assert (norms.max() - norms.min()) / norms.mean() < 1e-6

        for k in range(sol.schedule.grid.size):
            W = weights_from_costate(sol.lambda_seq[k], sol.X_seq[k], sol.schedule.mask)
            assert np.abs(sol.schedule.W_seq[k] - W).max() < 1e-8


def test_criterion_8_gradient_adjoint_checks():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        g = nx.path_graph(n)
        msk = g.mask
        X = rng.normal(size=(n, n))
        lam = rng.normal(size=(n, n))
        W = np.where(msk, rng.normal(size=(n, n)), 0.0)
        eps = 1e-6

        # dH/dw_ij analytic vs central differences, mask entries only
        analytic = lam @ X.T + W
        for (i, j) in np.argwhere(msk) + 1:
            Wp, Wm = W.copy(), W.copy()
            Wp[i - 1, j - 1] += eps
            Wm[i - 1, j - 1] -= eps
            fd = (hamiltonian(X, lam, Wp) - hamiltonian(X, lam, Wm)) / (2 * eps)
            ref = analytic[i - 1, j - 1]
            assert abs(fd - ref) / max(abs(ref), 1.0) < 1e-6

        # dH/dX matches the negated costate rate under the stationarity rule
        W_star = weights_from_costate(lam, X, msk)
        _, dlam = extremal_rhs(X, lam, msk)
        for i in range(n):
            for j in range(n):
                Xp, Xm = X.copy(), X.copy()
                Xp[i, j] += eps
                Xm[i, j] -= eps
                fd = (hamiltonian(Xp, lam, W_star) - hamiltonian(Xm, lam, W_star)) / (2 * eps)
                ref = -dlam[i, j]
                assert abs(fd - ref) / max(abs(ref), 1.0) < 1e-6


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
        "target": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        "solver": {"seed": 0},
    }
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for idx in range(2):  # each solve in a fresh interpreter
        out = tmp_path / f"out{idx}"
        proc = subprocess.run(
            [sys.executable, "-m", "netxform.cli", "solve",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]
