"""Shared fixtures: canonical target matrices and the expensive end-to-end
solves reused by several test modules.

A small terminal-summary hook prints one PASS/FAIL line per acceptance
criterion (tests named test_criterion_*), so the gate outcome is visible
even when pytest captures stdout.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import netxform as nx
from netxform import optimal_control

_CRITERION_RESULTS = {}

CRITERION_TITLES = {
    1: "feasibility gate classifications",
    2: "Lie layer brackets and closure dimensions",
    3: "scalar analytic boundary value problem",
    4: "5-node densification",
    5: "4-node swap through the cyclic waypoint",
    6: "trajectory invariants on random schedules",
    7: "extremal conservation laws",
    8: "gradient and adjoint finite-difference checks",
    9: "byte-identical output across runs",
}


def pytest_runtest_logreport(report):
    name = report.location[2]
    if report.when == "call" and name.startswith("test_criterion_"):
        num = int(name.split("_")[2])
        _CRITERION_RESULTS[num] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_CRITERION_RESULTS):
        status = "PASS" if _CRITERION_RESULTS[num] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"  criterion {num} ({CRITERION_TITLES[num]}): {status}")


def consensus_map(n: int) -> np.ndarray:
    """Rank-one averaging map; determinant zero for n >= 2."""
    return np.full((n, n), 1.0 / n)


def exact_determinant(A) -> Fraction:
    """det A by elimination over the rationals on the float entries' exact values."""
    M = [[Fraction(v) for v in row] for row in np.asarray(A, dtype=float).tolist()]
    det = Fraction(1)
    for k in range(len(M)):
        p = next((i for i in range(k, len(M)) if M[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            M[k], M[p], det = M[p], M[k], -det
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return det


def rounded(x: Fraction) -> float:
    """x correctly rounded to a float (float() of a Fraction), +-inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def single_node_average_map(n: int) -> np.ndarray:
    """Averaging computed by node 1 only; all other nodes restored."""
    T = np.eye(n)
    T[0] = 1.0 / n
    return T


SWAP_TARGET = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
])

CYCLIC_WAYPOINT = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the returned list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def _counted_solve(prob):
    """solve_bvp(prob) and the number of shoot passes (_shoot_batch calls) it made."""
    with pytest.MonkeyPatch.context() as mp:
        passes = count_calls(mp, optimal_control, "_shoot_batch")
        sol = optimal_control.solve_bvp(prob)
    return sol, len(passes)


@pytest.fixture(scope="session")
def scalar_run():
    """Criterion 3's scalar solve, I to 2, and its shoot passes."""
    g = nx.build_graph(1, [])
    return _counted_solve(optimal_control.BvpProblem(graph=g, target=np.array([[2.0]])))


@pytest.fixture(scope="session")
def scalar_solution(scalar_run):
    return scalar_run[0]


PATH3_TARGET = np.eye(3) * 0.8 + 0.2 / 3  # consensus-like, off path3's pattern


@pytest.fixture(scope="session")
def path3_run():
    """The direct solve of PATH3_TARGET on path3 and its shoot passes."""
    return _counted_solve(optimal_control.BvpProblem(graph=nx.path_graph(3),
                                                     target=PATH3_TARGET))


@pytest.fixture(scope="session")
def path3_solution(path3_run):
    return path3_run[0]


@pytest.fixture(scope="session")
def densify_run():
    """The 5-node densification report, the seconds run_densify took and
    the number of shoot passes (_shoot_batch calls) it made."""
    with pytest.MonkeyPatch.context() as mp:
        passes = count_calls(mp, optimal_control, "_shoot_batch")
        start = time.time()
        report = nx.run_densify(nx.path_graph(5), nx.complete_graph(5))
        seconds = time.time() - start
    return report, seconds, len(passes)


@pytest.fixture(scope="session")
def densify_report(densify_run):
    return densify_run[0]


@pytest.fixture(scope="session")
def swap_run():
    """The 4-node swap report and the number of shoot passes it made."""
    with pytest.MonkeyPatch.context() as mp:
        passes = count_calls(mp, optimal_control, "_shoot_batch")
        report = nx.run_swap(nx.cycle_graph(4), ((1, 2), (3, 4)))
    return report, len(passes)


@pytest.fixture(scope="session")
def swap_report(swap_run):
    return swap_run[0]
