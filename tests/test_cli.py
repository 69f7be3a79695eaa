"""Command-line interface: exit codes, emitted bundles, and round-trips.

Commands are driven through main(argv) in-process; stdout/stderr are
checked via capsys. Inputs too large to hold run in a child process with a
capped address space.
"""

import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import netxform as nx
from netxform import cli, optimal_control
from netxform.cli import main
from netxform.csvio import read_schedule_csv

from conftest import count_calls


def _trajectory(path):
    """The time column and the value columns, one row per time, of a
    trajectory CSV (nodes.csv, transition.csv, costate.csv)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def scalar_cfg(tmp_path):
    return _write_cfg(tmp_path, "scalar.json", {
        "graph": {"nodes": 1, "edges": []},
        "target": [[2.0]],
    })


PATH2_CFG = {"graph": {"nodes": 2, "edges": [[1, 2]]}, "target": np.eye(2).tolist()}


@pytest.fixture
def path3_cfg(tmp_path):
    return _write_cfg(tmp_path, "path3.json", {
        "graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
        "target": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    })


# ---------------------------------------------------------------------------
# check


def test_check_feasible_exit_zero(path3_cfg, capsys):
    assert main(["check", "--config", path3_cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"det", "connected", "feasible", "reason"}
    assert report["feasible"] is True


def test_check_infeasible_exit_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[0.5, 0.5], [0.5, 0.5]],
    })
    assert main(["check", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False and report["det"] == 0.0


def test_check_missing_config_exit_one(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "none.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, what", [
    ("{", "not valid JSON"),
    ("[]", "top level must be an object"),
    (json.dumps({**PATH2_CFG, "solver": [1]}), "field 'solver' must be an object"),
], ids=["not-json", "not-object", "solver-not-object"])
def test_malformed_config_exit_one(tmp_path, capsys, text, what):
    (tmp_path / "cfg.json").write_text(text)
    assert main(["solve", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, what)
    assert not (tmp_path / "o").exists()


def test_check_missing_target_field_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "no_target.json",
                     {"graph": {"nodes": 1, "edges": []}})
    assert main(["check", "--config", cfg]) == 1
    assert "target" in capsys.readouterr().err


def test_check_dimension_mismatch_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mismatch.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[1.0]],
    })
    assert main(["check", "--config", cfg]) == 1


def test_check_non_finite_target_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "nan.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[1.0, float("nan")], [0.0, 1.0]],
    })
    assert main(["check", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def _assert_one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert all(name in err for name in names), err
    return err


@pytest.mark.parametrize("graph", [
    {"nodes": 2, "edges": [["a", 2]]},
    {"nodes": 2, "edges": [[1]]},
    {"nodes": 2, "edges": 5},
    {"nodes": 2, "edges": [[1.7, 2]]},
    {"nodes": 2.5, "edges": [[1, 2]]},
    {"nodes": False, "edges": []},
    {"nodes": float("nan"), "edges": []},
    {"nodes": "2", "edges": [[1, 2]]},
    {"nodes": [2], "edges": [[1, 2]]},
    {"nodes": 2, "edges": [[1, True]]},
    {"nodes": 2, "edges": [[1, float("inf")]]},
    {"nodes": 2, "edges": [[1, None]]},
])
def test_check_malformed_graph_exit_one(tmp_path, capsys, graph):
    cfg = _write_cfg(tmp_path, "g.json", {"graph": graph, "target": np.eye(2).tolist()})
    assert main(["check", "--config", cfg]) == 1
    _assert_one_error_line(capsys, "graph")


MALFORMED_TARGETS = [
    [[1, 0], [0, True]], [[1, 0], [0, float("-inf")]], [[1, 0], [0, "1"]],
    [[1, 0], [0, None]], [[1, 0], [0]], [1, 0, 0, 1],
]


@pytest.mark.parametrize("target", MALFORMED_TARGETS)
def test_check_malformed_target_exit_one(tmp_path, capsys, target):
    cfg = _write_cfg(tmp_path, "t.json", {**PATH2_CFG, "target": target})
    assert main(["check", "--config", cfg]) == 1
    assert _assert_one_error_line(capsys).startswith("error: target ")


@pytest.mark.parametrize("target", MALFORMED_TARGETS)
def test_check_rejects_a_target_as_the_python_api_does(tmp_path, capsys, target):
    # one admission: the command line prints the gate's own error
    with pytest.raises(nx.InputError) as info:
        nx.check_feasible(nx.path_graph(2), target)
    cfg = _write_cfg(tmp_path, "t.json", {**PATH2_CFG, "target": target})
    assert main(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize("fields", [
    {"solver": {"steps": "abc"}}, {"solver": 5}, {"t0": "x"}, {"tf": True},
    {"waypoints": [[[1.0]]]}, {"waypoints": 5}, {"steps": 0},
])
def test_check_reads_only_graph_and_target(tmp_path, capsys, fields):
    cfg = _write_cfg(tmp_path, "c.json", {**PATH2_CFG, **fields})
    assert main(["check", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True


def _no_constants(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("diagonal, code", [
    ([1e200, 1e200], 0), ([1e-200, 1e-200], 0), ([-1e200, 1e200], 2), ([-1e-200, 1e-200], 2),
])
def test_check_decides_from_the_determinant_sign(tmp_path, capsys, diagonal, code):
    # the float product of the pivots over- or underflows; its sign does not
    cfg = _write_cfg(tmp_path, "d.json", {**PATH2_CFG, "target": np.diag(diagonal).tolist()})
    assert main(["check", "--config", cfg]) == code
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert report["feasible"] is (code == 0)


def test_check_decides_from_the_exact_sign_where_elimination_rounds_wrong(tmp_path, capsys):
    # det T > 0 exactly, but a float elimination of T rounds it to zero or below;
    # check shows det T correctly rounded
    target = [[-1.130207332603566, -0.291056219922398, -0.26008849663367606],
              [-1.7811155797923373, 0.9619095466468647, 1.6987753437805524],
              [-0.8119357010735024, -1.0642840706810597, -1.4562486292186398]]
    cfg = _write_cfg(tmp_path, "t.json",
                     {"graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]}, "target": target})
    assert main(["check", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True and report["det"] == 1.156870122315535e-16


def test_check_shows_zero_for_an_exactly_singular_target(tmp_path, capsys):
    # rounding leaves a float elimination of this integer matrix a nonzero last pivot
    target = [[12, 6, -18], [33, 84, -72], [9, 27, -21]]
    cfg = _write_cfg(tmp_path, "t.json",
                     {"graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]}, "target": target})
    assert main(["check", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["det"] == 0.0 and report["reason"] == "determinant is zero"


@pytest.mark.parametrize("diagonal", [
    [1e200, 1e200], [1e-200, 1e-200], [-1e200, 1e200], [-1e-200, 1e-200],
])
def test_check_det_is_null_when_the_product_leaves_the_float_range(tmp_path, capsys, diagonal):
    # the sign is known, so a product of inf or 0 would mislead
    cfg = _write_cfg(tmp_path, "d.json", {**PATH2_CFG, "target": np.diag(diagonal).tolist()})
    main(["check", "--config", cfg])
    report = json.loads(capsys.readouterr().out)
    assert report["det"] is None and "(" not in report["reason"]


def test_unknown_command_exit_one(capsys):
    assert main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# solve


def test_solve_scalar_bundle(scalar_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", scalar_cfg, "--out", str(out)]) == 0
    sol = json.loads((out / "solution.json").read_text())
    assert sol["converged"] is True
    assert abs(sol["cost"] - 0.5 * np.log(2.0) ** 2) < 1e-8
    assert abs(sol["lambda0"][0][0] + np.log(2.0)) < 1e-6

    sched = read_schedule_csv(out / "schedule.csv")
    assert np.abs(sched.W_seq[:, 0, 0] - np.log(2.0)).max() < 1e-6
    grid, X_seq = _trajectory(out / "transition.csv")
    assert abs(X_seq[-1, 0] - 2.0) < 1e-8
    assert (out / "costate.csv").exists()
    # a one-arc bundle's solution.json is its arc's record, with no segments
    prob = nx.BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]))
    assert "segments" not in sol
    assert sol == optimal_control._summary(nx.solve_bvp(prob))


def test_solve_identity_target_zero_schedule(tmp_path):
    cfg = _write_cfg(tmp_path, "id.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[1.0, 0.0], [0.0, 1.0]],
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    sched = read_schedule_csv(out / "schedule.csv")
    assert not sched.W_seq.any()


def test_solve_infeasible_exit_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "inf.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[0.0, 1.0], [1.0, 0.0]],
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_solve_infeasible_waypoint_exit_two(path3_cfg, tmp_path, capsys):
    cfg = json.loads(Path(path3_cfg).read_text())
    cfg["waypoints"] = [np.diag([-1.0, 1.0, 1.0]).tolist()]  # det < 0
    path = _write_cfg(tmp_path, "wp.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("first, second, why", [
    ([2.0, 1.0], [-1.0, 1.0], "infeasible"),
    ([1.0, 1e13], [-1.0, 1.0], "infeasible"),
    ([1.0, 1e13], [1.0, 1e-20], "singular"),
], ids=["feasible-first", "far-first", "far-first-singular"])
def test_solve_second_waypoint_fault_exit_two_before_any_shoot(tmp_path, capsys, monkeypatch,
                                                               first, second, why):
    # the arc ending on waypoint 2 carries its det < 0; the next arc meets it
    # singular. Every arc is gated before any reach check, so an arc 1 out of
    # reach (I to diag(1, 1e13)) does not hide the fault
    shots = count_calls(monkeypatch, optimal_control, "_shoot_batch")
    cfg = _write_cfg(tmp_path, "wp.json", {
        **PATH2_CFG, "waypoints": [np.diag(first).tolist(), np.diag(second).tolist()],
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys, "waypoint 2", why)
    assert shots == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("target, waypoints, code, words", [
    ([1.0, 1.0], [[1.0, 1e-15], [1.0, 1e300]], 2, ["waypoint 2 is singular"]),
    ([1.0, 1e300], [[1.0, 1e-15]], 3, ["arc 2 (waypoint 1 to the target)", "divergence limit"]),
    ([1.0, 1.0], [[1.0, 1e-15], [1e300, 1e300], [-1.0, 1.0]], 2,
     ["arc 3 (waypoint 2 to waypoint 3)", "determinant is negative"]),
], ids=["then-singular", "then-far", "then-infeasible"])
def test_solve_arc_past_the_float_range_is_out_of_reach(tmp_path, capsys, monkeypatch,
                                                        target, waypoints, code, words):
    # an arc target B_k B_{k-1}^-1 that overflows is judged by the reach rule
    # (exit 3), after every gate or singular-waypoint fault (exit 2), unwarned
    shots = count_calls(monkeypatch, optimal_control, "_shoot_batch")
    cfg = _write_cfg(tmp_path, "wp.json", {
        **PATH2_CFG, "target": np.diag(target).tolist(),
        "waypoints": [np.diag(w).tolist() for w in waypoints],
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    _assert_one_error_line(capsys, *words)
    assert shots == [] and not (tmp_path / "o").exists()


def test_solve_settings_checked_before_feasibility(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "inf.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[0.0, 1.0], [1.0, 0.0]],
        "solver": {"steps": 0},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)


def test_solve_warns_on_singular_homotopy(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "swapish.json", {
        "graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "target": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        "solver": {"max_iter": 1, "restarts": 0},
    })
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "nearly singular" in err and "s = 0.5" in err
    assert code == 3  # 1-iteration budget cannot converge; bundle still written
    assert (tmp_path / "o" / "solution.json").exists()


def test_solve_that_converges_does_not_warn(tmp_path, capsys):
    # the homotopy to (1 3)(2 4) passes a singular matrix at s = 0.5, but the
    # direct solve converges (J = pi^2), so waypoints would be no help
    cfg = _write_cfg(tmp_path, "swap13.json", {
        "graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "target": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    sol = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert sol["converged"] and abs(sol["cost"] - np.pi ** 2) < 1e-4


def test_solve_with_config_waypoints(tmp_path):
    cfg = _write_cfg(tmp_path, "wp.json", {
        "graph": {"nodes": 1, "edges": []},
        "target": [[4.0]],
        "waypoints": [[[2.0]]],
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    sol = json.loads((out / "solution.json").read_text())
    assert len(sol["segments"]) == 2
    sched = read_schedule_csv(out / "schedule.csv")
    assert len(sched.pieces()) == 2
    grid, X_seq = _trajectory(out / "transition.csv")
    assert np.all(np.diff(grid) > 0)
    assert abs(X_seq[-1, 0] - 4.0) < 1e-7
    # the costate jumps at the join, so costate.csv keeps both of its rows
    cgrid, _ = _trajectory(out / "costate.csv")
    assert cgrid.size == grid.size + 1
    assert np.count_nonzero(cgrid == 0.5) == 2


# a boolean, non-finite numbers, non-numbers and a wrong shape
BAD_NUMBERS = [True, float("nan"), float("inf"), "1", None, [1]]
WHOLE_SETTINGS = ("steps", "max_iter", "restarts", "seed")


@pytest.mark.parametrize("fields", [
    {"solver": {"steps": 0}}, {"solver": {"steps": "many"}}, {"solver": {"steps": 2.5}},
    {"solver": {"max_iter": 0}}, {"solver": {"restarts": -1}}, {"solver": {"seed": -3}},
    {"solver": {"newton_tol": 0}}, {"solver": {"newton_tol": "nan"}},
    {"solver": {"newton_tol": None}}, {"t0": "zero"}, {"tf": "inf"}, {"tf": 0.0},
    *({"solver": {key: bad}} for key in (*WHOLE_SETTINGS, "newton_tol") for bad in BAD_NUMBERS),
    *({"solver": {key: 1.5}} for key in WHOLE_SETTINGS),
    *({key: bad} for key in ("t0", "tf") for bad in BAD_NUMBERS),
    {"solver": {"max_iters": 1, "restart": 0}}, {"solver": {"tf": 2.0}},  # not solver keys
    {"steps": 0}, {"initial_state": [1, 2, 3]},  # not top-level keys of solve
])
def test_solve_bad_solver_settings_exit_one(path3_cfg, tmp_path, capsys, fields):
    cfg = json.loads(Path(path3_cfg).read_text())
    cfg.update(fields)
    path = _write_cfg(tmp_path, "bad.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    (key, value), = fields.items()
    _assert_one_error_line(capsys, next(iter(value)) if key == "solver" else key)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fields", [
    {"graph": {"nodes": True}, "target": [[2.0]]},
    {"graph": {"nodes": 2, "edges": [[True, 2]]}},
    {"target": [[True, 0], [0, 1]]},
    {"waypoints": [[[1, 0], [0, False]]]},
    {"t0": False}, {"tf": True},
    {"solver": {"steps": True}}, {"solver": {"seed": False}},
    {"solver": {"newton_tol": True}},
])
def test_solve_json_booleans_exit_one(tmp_path, capsys, fields):
    # JSON true/false would otherwise read as 1/0
    path = _write_cfg(tmp_path, "bool.json", {**PATH2_CFG, **fields})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_solve_keeps_a_large_seed_exact(tmp_path, monkeypatch):
    # the config's int reaches BvpProblem as given: a float would round it to 2**60
    solves = count_calls(monkeypatch, cli, "solve_with_waypoints")
    path = _write_cfg(tmp_path, "seed.json", {**PATH2_CFG, "solver": {"seed": 2**60 + 1}})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert solves[0][0].seed == 2**60 + 1


def test_solve_non_finite_waypoint_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "wp.json", {
        "graph": {"nodes": 1, "edges": []},
        "target": [[4.0]],
        "waypoints": [[[float("inf")]]],
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "waypoint 1 has non-finite entries" in capsys.readouterr().err


def _eye3_with(value):
    W = np.eye(3).tolist()
    W[2][2] = value
    return W


@pytest.mark.parametrize("waypoints", [
    [np.eye(2).tolist()], 5, *([_eye3_with(bad)] for bad in BAD_NUMBERS),
])
def test_solve_malformed_waypoints_exit_one(path3_cfg, tmp_path, capsys, waypoints):
    cfg = json.loads(Path(path3_cfg).read_text())
    cfg["waypoints"] = waypoints
    path = _write_cfg(tmp_path, "wp.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "waypoints" if waypoints == 5 else "waypoint 1")


def test_solve_singular_waypoint_exit_two(tmp_path, capsys):
    # det > 0 passes the gate, but the next arc's target needs its inverse
    cfg = _write_cfg(tmp_path, "wp.json",
                     {**PATH2_CFG, "waypoints": [np.diag([1e-20, 1.0]).tolist()]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys, "waypoint 1")
    assert not (tmp_path / "o").exists()


def test_solve_unreachable_target_exit_three(tmp_path, capsys):
    # det > 0 passes the gate, but a shoot whose X passes 1e12 has diverged
    cfg = _write_cfg(tmp_path, "far.json", {
        **PATH2_CFG, "target": np.diag([1e200, 1e200]).tolist(),
        "solver": {"restarts": 0, "max_iter": 3},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    _assert_one_error_line(capsys, "divergence limit")
    assert not (tmp_path / "o").exists()


def test_solve_unreachable_waypoint_exit_three(tmp_path, capsys):
    # the target I is reachable, but the arc from I to waypoint 1 is not
    cfg = _write_cfg(tmp_path, "far.json",
                     {**PATH2_CFG, "waypoints": [np.diag([1.0, 1e13]).tolist()]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    _assert_one_error_line(capsys, "waypoint 1", "divergence limit")
    assert not (tmp_path / "o").exists()


class _Shot(Exception):
    pass


def test_solve_far_target_with_arcs_in_reach_is_shot(tmp_path, monkeypatch):
    # only the arcs are shot, so only they must stay inside the divergence limit
    def first_shoot(prob, stack):
        raise _Shot(prob.target)

    monkeypatch.setattr(optimal_control, "_shoot_batch", first_shoot)
    cfg = _write_cfg(tmp_path, "far.json", {
        **PATH2_CFG, "target": np.diag([1.0, 1e13]).tolist(),
        "waypoints": [np.diag([1.0, 1e6]).tolist(), np.diag([1.0, 1e12]).tolist()],
    })
    with pytest.raises(_Shot):
        main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])


# ---------------------------------------------------------------------------
# shared flags


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--out", "d"),
    ("check", "--seed", "1"),
    ("check", "--steps", "5"),
    ("simulate", "--seed", "1"),
    ("simulate", "--steps", "5"),  # the schedule sets the replay's steps
    ("solve", "--seed", "1"),
    ("solve", "--steps", "5"),
    ("scenario", "--seed", "1"),
    ("scenario", "--steps", "5"),
])
def test_unread_flags_exit_one(tmp_path, capsys, path3_cfg, command, flag, value):
    # seed and steps of solve and scenario come from the config's "solver" only
    argv = {"check": ["check", "--config", path3_cfg],
            "solve": ["solve", "--config", path3_cfg],
            "scenario": ["scenario", "densify", "--config", path3_cfg],
            "simulate": ["simulate", "--schedule", str(tmp_path / "s.csv"),
                         "--xi", "1,2"]}[command]
    if flag == "--out":
        value = str(tmp_path / value)
    assert main(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert list(tmp_path.iterdir()) == [Path(path3_cfg)]


@pytest.mark.parametrize("command", ["solve", "scenario", "simulate"])
def test_unusable_out_exit_one_before_any_work(tmp_path, capsys, monkeypatch, command):
    # no directory can be made at a file or at a path through one, so the
    # command stops before it shoots or replays, and leaves the file as it was
    spath = tmp_path / "s.csv"
    spath.write_text("t,w_1_2,w_2_1\n0,0,0\n1,0,0\n")
    argv = {"solve": ["solve", "--config", _write_cfg(tmp_path, "c.json", PATH2_CFG)],
            "scenario": ["scenario", "densify", "--config",
                         _write_cfg(tmp_path, "d.json", DENSIFY2)],
            "simulate": ["simulate", "--schedule", str(spath), "--xi", "1,2"]}[command]
    shots = count_calls(monkeypatch, optimal_control, "_shoot_batch")
    replays = count_calls(monkeypatch, cli, "propagate_state")
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out", str(out)]) == 1
        _assert_one_error_line(capsys, "output directory")
    assert shots == [] and replays == [] and blocker.read_text() == "kept\n"


def test_output_write_failure_exit_one(tmp_path, capsys):
    # --out is a directory, but a directory stands where schedule.csv goes
    (tmp_path / "o" / "schedule.csv").mkdir(parents=True)
    cfg = _write_cfg(tmp_path, "c.json", PATH2_CFG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "schedule.csv")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_schedule_keeps_state(tmp_path):
    msk = nx.path_graph(2).mask
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, sched)
    out = tmp_path / "out"
    # the initial state is read as schedule rows are: a quoted cell is read as
    # the number inside, --xi-file may hold a row or a column, and a line of
    # spaces is blank
    (tmp_path / "xi.csv").write_text("1\n2\n")
    (tmp_path / "xi_spaced.csv").write_text("1\n   \n2\n")
    for xi in (["--xi", "1,2"], ["--xi", '"1",2'], ["--xi-file", str(tmp_path / "xi.csv")],
               ["--xi-file", str(tmp_path / "xi_spaced.csv")]):
        assert main(["simulate", "--schedule", str(spath), *xi, "--out", str(out)]) == 0
        grid, xs = _trajectory(out / "nodes.csv")
        assert np.array_equal(xs[-1], [1.0, 2.0])


@pytest.mark.parametrize("xi", ["-1,2", "-0.5,-2", "-1e-3,4"])
def test_simulate_negative_first_xi(tmp_path, xi):
    # a spaced value that starts with a minus sign is the initial state, not a flag
    msk = nx.path_graph(2).mask
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, sched)
    out = tmp_path / "out"
    assert main(["simulate", "--schedule", str(spath), "--xi", xi,
                 "--out", str(out)]) == 0
    _, xs = _trajectory(out / "nodes.csv")
    assert np.array_equal(xs[-1], [float(v) for v in xi.split(",")])


def test_simulate_solved_schedule_reaches_target(path3_cfg, tmp_path):
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", path3_cfg, "--out", str(out)]) == 0
    sim = tmp_path / "sim_out"
    assert main(["simulate", "--schedule", str(out / "schedule.csv"),
                 "--xi", "1,0,0", "--config", path3_cfg,
                 "--out", str(sim)]) == 0
    _, xs = _trajectory(sim / "nodes.csv")
    assert np.abs(xs[-1] - [0.8, 0.1, 0.1]).max() < 1e-7


def test_simulate_reproduces_transition_action(path3_cfg, tmp_path):
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", path3_cfg, "--out", str(out)]) == 0
    _, X_seq = _trajectory(out / "transition.csv")
    X_seq = X_seq.reshape(-1, 3, 3)
    xi = np.array([0.3, -1.2, 0.9])
    sim = tmp_path / "sim_out"
    assert main(["simulate", "--schedule", str(out / "schedule.csv"),
                 "--xi", ",".join(map(str, xi)), "--out", str(sim)]) == 0
    _, xs = _trajectory(sim / "nodes.csv")
    assert np.linalg.norm(xs[-1] - X_seq[-1] @ xi) < 1e-7


def test_simulate_backwards_join_exit_one(tmp_path, capsys):
    # the second piece would start before the first one ends
    spath = tmp_path / "s.csv"
    spath.write_text("t,w_1_1\n0.0,0.0\n0.5,0.0\n1.0,0.0\n0.2,0.0\n0.6,0.0\n")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, str(spath))
    assert not (tmp_path / "o").exists()


def test_simulate_undecodable_schedule_exit_one(tmp_path, capsys):
    spath = tmp_path / "s.csv"
    spath.write_bytes(b"t,w_1_1\n0,\xff\xfe\n1,1\n")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, str(spath))
    assert not (tmp_path / "o").exists()


def test_simulate_repeated_column_exit_one(tmp_path, capsys):
    # two values for one weight: neither may silently win
    spath = tmp_path / "s.csv"
    spath.write_text("t,w_1_1,w_1_1\n0,1,2\n1,1,2\n")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, str(spath), "repeated", "w_1_1")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("node", ["99999999999999999999", "9223372036854775808"])
def test_simulate_node_past_int64_exit_one(tmp_path, capsys, monkeypatch, node):
    # the node number saturates to 2^63 - 1, whose edge pattern no array holds
    spath = tmp_path / "s.csv"
    spath.write_text(f"t,w_1_1,w_{node}_1\n0,0,0\n1,0,0\n")
    replays = count_calls(monkeypatch, cli, "propagate_state")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, str(spath), "too large")
    assert replays == [] and not (tmp_path / "o").exists()


def test_simulate_overflowing_schedule_exit_one(tmp_path, capsys):
    # x_1 grows as e^(800 t) and leaves the float range before t = 1; numpy's
    # overflow warnings, which tier-1 turns into errors, stay quiet
    spath = tmp_path / "s.csv"
    spath.write_text("t,w_1_1,w_2_2\n0,800,0\n1,800,0\n")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,1",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "non-finite")
    assert not (tmp_path / "o").exists()


def test_simulate_joined_scenario_schedule_matches_its_nodes(tmp_path):
    # the swap's schedule has a join; simulate replays it as the scenario did
    cfg = _write_cfg(tmp_path, "swap.json", {
        "graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "pairs": [[1, 2], [3, 4]],
    })
    out, sim = tmp_path / "out", tmp_path / "sim"
    assert main(["scenario", "swap", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_schedule_csv(out / "schedule.csv").pieces()) == 2
    # the scenario's config is a graph config too
    assert main(["simulate", "--schedule", str(out / "schedule.csv"), "--xi", "1,2,3,4",
                 "--config", cfg, "--out", str(sim)]) == 0
    assert (sim / "nodes.csv").read_bytes() == (out / "nodes.csv").read_bytes()
    _, xs = _trajectory(sim / "nodes.csv")
    assert np.abs(xs[-1] - [2.0, 1.0, 4.0, 3.0]).max() < 1e-6


def test_simulate_mask_mismatch_exit_one(tmp_path, capsys):
    msk = nx.complete_graph(3).mask
    sched = nx.constant_schedule(np.zeros((3, 3)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, sched)
    cfg = _write_cfg(tmp_path, "g.json",
                     {"graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
                      "target": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2,3",
                 "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "sparsity" in capsys.readouterr().err


def test_simulate_bad_xi_exit_one(tmp_path, capsys):
    msk = nx.path_graph(2).mask
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, sched)
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2,3",
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["simulate", "--schedule", str(spath),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--xi-file", "1,abc"),  # non-numeric cell
    ("--xi-file", "inf,1"),  # non-finite entry
    ("--xi-file", ""),       # no entries
    ("--xi", "1,nan"),       # non-finite entry
    ("--xi", "true,1"),      # a boolean
    ("--xi", "1,abc"),       # non-numeric cell
    ("--xi", "1,-inf"),      # non-finite entry
    ("--xi", "-inf,1"),      # non-finite first entry, which starts with a minus sign
    ("--xi", "1,2,3"),       # wrong length
    ("--xi-file", "1,2\n3,4"),  # wrong shape
    ("--xi-file", "1\n2,3"),    # a row longer than the first
    ("--xi", '"1",abc'),        # a quoted cell, then a non-numeric one
    ("--xi", '"1,5",abc'),      # a quoted comma is no cell boundary
    ("--xi", '"1,5",2'),        # two cells, the first no number
])
def test_simulate_bad_xi_values_exit_one(tmp_path, capsys, flag, value):
    msk = nx.path_graph(2).mask
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, sched)
    if flag == "--xi-file":
        (tmp_path / "xi.csv").write_text(value + "\n")
        value = str(tmp_path / "xi.csv")
    assert main(["simulate", "--schedule", str(spath), flag, value,
                 "--out", str(tmp_path / "o")]) == 1
    # a cell that is no number, or a ragged row, is named by its line in the
    # schedule reader's words, not numpy's
    line = {"1,abc": "line 1 must hold 2 numbers", "1\n2,3": "line 2 must hold 1 number,",
            '"1",abc': "line 1 must hold 2 numbers", '"1,5",abc': "line 1 must hold 2 numbers",
            '"1,5",2': "line 1 must hold 2 numbers"}.get(value, "")
    err = _assert_one_error_line(capsys, flag, line)
    assert not any(word in err for word in ("float64", "usecols", "row 0")), err


def test_simulate_xi_with_xi_file_exit_one(tmp_path, capsys):
    # neither source wins silently
    msk = nx.path_graph(2).mask
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, sched)
    (tmp_path / "xi.csv").write_text("3,4\n")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2",
                 "--xi-file", str(tmp_path / "xi.csv"), "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "--xi", "--xi-file")
    assert not (tmp_path / "o").exists()


def test_simulate_steps_follow_the_finest_piece(tmp_path):
    # a zero piece on [0, 1] asks for 200 steps, and w_1_1 = 30 sin(300 t) on
    # [1, 2], sampled at 2001 times, asks for 1000; 200 steps there miss by 9e-3
    from netxform.csvio import write_schedule_csv
    grid = np.concatenate([[0.0, 1.0], np.linspace(1.0, 2.0, 2001)])
    W_seq = np.zeros((grid.size, 2, 2))
    W_seq[2:, 0, 0] = 30.0 * np.sin(300.0 * grid[2:])
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, nx.WeightSchedule(grid=grid, W_seq=W_seq,
                                                mask=nx.path_graph(2).mask))
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2",
                 "--out", str(tmp_path / "o")]) == 0
    _, xs = _trajectory(tmp_path / "o" / "nodes.csv")
    want = np.exp(0.1 * (np.cos(300.0) - np.cos(600.0)))
    assert abs(xs[-1, 0] - want) / want < 1e-3 and xs[-1, 1] == 2.0


@pytest.mark.parametrize("columns, code", [
    ("w_1_1,w_1_2,w_2_1,w_2_2,w_3_3", 0),  # no weight on the edge (2, 3)
    ("w_1_1,w_1_3,w_2_2,w_3_3", 1),        # (1, 3) is not an edge of path3
    ("w_1_1,w_1_2,w_2_1,w_2_2", 0),        # node 3 unnamed: zero weight there
    ("w_1_1,w_2_2,w_3_3,w_4_4", 1),        # four nodes
], ids=["subset", "non-local", "fewer-nodes", "more-nodes"])
def test_simulate_config_takes_local_schedules(tmp_path, capsys, path3_cfg, columns, code):
    # --config asks that the schedule keeps to the graph's edges, not that it uses each
    row = ",0.5" * (columns.count(",") + 1)
    spath = tmp_path / "s.csv"
    spath.write_text(f"t,{columns}\n0{row}\n1{row}\n")
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,1,1",
                 "--config", path3_cfg, "--out", str(tmp_path / "o")]) == code
    if code:
        _assert_one_error_line(capsys, "sparsity")
        assert not (tmp_path / "o").exists()
    else:
        _, xs = _trajectory(tmp_path / "o" / "nodes.csv")
        if "w_3_3" in columns:
            assert abs(xs[-1, 2] - np.exp(0.5)) < 1e-12
        else:  # node 3 keeps its value, and nodes 1-2 run as on their own
            assert np.all(xs[:, 2] == 1.0)
            assert main(["simulate", "--schedule", str(spath), "--xi", "1,1",
                         "--out", str(tmp_path / "o2")]) == 0
            _, xs2 = _trajectory(tmp_path / "o2" / "nodes.csv")
            assert xs[:, :2].tobytes() == xs2.tobytes()


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_swap_bundle(tmp_path):
    cfg = _write_cfg(tmp_path, "swap.json", {
        "graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "pairs": [[1, 2], [3, 4]],
    })
    out = tmp_path / "out"
    assert main(["scenario", "swap", "--config", cfg, "--out", str(out)]) == 0
    _, xs = _trajectory(out / "nodes.csv")
    assert np.abs(xs[-1] - [2.0, 1.0, 4.0, 3.0]).max() < 1e-4
    sol = json.loads((out / "solution.json").read_text())
    assert sol["converged"] is True and len(sol["segments"]) == 2


def test_scenario_densify_bundle(tmp_path):
    cfg = _write_cfg(tmp_path, "densify.json", {
        "sparse_graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
        "dense_graph": {"nodes": 3,
                        "edges": [[1, 2], [2, 3], [1, 3]]},
    })
    out = tmp_path / "out"
    assert main(["scenario", "densify", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "t,err_sparse,err_dense,err_synth"
    last = [float(v) for v in rows[-1].split(",")]
    assert last[3] <= last[1] + 1e-12  # synthesized beats plain sparse
    assert abs(last[3] - last[2]) < 1e-5  # and matches dense consensus
    assert (out / "nodes.csv").exists() and (out / "schedule.csv").exists()


def test_scenario_bad_kind_and_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "swap_bad.json", {
        "graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "pairs": [[1, 1]],
    })
    assert main(["scenario", "swap", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    assert "disjoint" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


DENSIFY3 = {"sparse_graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
            "dense_graph": {"nodes": 3, "edges": [[1, 2], [2, 3], [1, 3]]}}
SWAP4 = {"graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
         "pairs": [[1, 2], [3, 4]]}


def test_scenario_densify_horizon_from_config(tmp_path):
    cfg = _write_cfg(tmp_path, "densify.json", {**DENSIFY3, "t0": 1.0, "tf": 1.5})
    out = tmp_path / "out"
    assert main(["scenario", "densify", "--config", cfg, "--out", str(out)]) == 0
    grid, _ = _trajectory(out / "transition.csv")
    errors = np.loadtxt(out / "errors.csv", delimiter=",", skiprows=1)
    for t in (grid, errors[:, 0]):
        assert t[0] == 1.0 and t[-1] == 1.5


@pytest.mark.parametrize("kind, base, key, graph", [
    ("swap", SWAP4, "graph", {"nodes": 4, "edges": [[1, 5]]}),
    ("densify", DENSIFY3, "sparse_graph", {"nodes": 3, "edges": [[1, "2"]]}),
    ("densify", DENSIFY3, "dense_graph", {"edges": [[1, 2]]}),
    ("densify", DENSIFY3, "dense_graph", {"nodes": 2, "edges": [[1, 2.5]]}),
], ids=["graph-node-5", "sparse-str", "dense-no-nodes", "dense-edge-2.5"])
def test_scenario_graph_error_names_its_field(tmp_path, capsys, kind, base, key, graph):
    cfg = _write_cfg(tmp_path, "bad.json", {**base, key: graph})
    assert main(["scenario", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, f"field '{key}': ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, base, fields", [
    ("densify", DENSIFY3, {"solver": {"steps": 0}}),
    ("densify", DENSIFY3, {"tf": "inf"}),
    ("densify", DENSIFY3, {"t0": 2.0}),
    ("swap", SWAP4, {"solver": {"restarts": -1}}),
    ("swap", SWAP4, {"solver": {"max_iter": "x"}}),
    ("densify", DENSIFY3, {"solver": {"max_iters": 1}}),
    ("densify", DENSIFY3, {"solver": {"tf": 2.0}}),
    ("swap", SWAP4, {"solver": {"restart": 0}}),
    ("swap", SWAP4, {"solver": {"t0": 0.5}}),
    ("densify", DENSIFY3, {"waypoints": []}),  # not top-level keys of the scenario
    ("densify", DENSIFY3, {"pairs": [[1, 2]]}),
    ("swap", SWAP4, {"dense_graph": SWAP4["graph"]}),
])
def test_scenario_bad_solver_settings_exit_one(tmp_path, capsys, kind, base, fields):
    cfg = _write_cfg(tmp_path, "bad.json", {**base, **fields})
    assert main(["scenario", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_scenario_densify_disconnected_sparse_graph_exit_two(tmp_path, capsys):
    # the feasibility gate rejects it, as it does for solve and swap
    cfg = _write_cfg(tmp_path, "split.json", {
        **DENSIFY3, "sparse_graph": {"nodes": 3, "edges": [[1, 2]]}})
    assert main(["scenario", "densify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys, "not connected")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pairs", [
    [["a", 2]], [[1, 2, 3]], 5, *([[1, 2], [3, bad]] for bad in BAD_NUMBERS), [[1, 2], [3, 4.5]],
    [[1, 5]],  # node 5 of cycle4
])
def test_scenario_bad_swap_pairs_exit_one(tmp_path, capsys, monkeypatch, pairs):
    shots = count_calls(monkeypatch, optimal_control, "_shoot_batch")
    cfg = _write_cfg(tmp_path, "bad.json", {**SWAP4, "pairs": pairs})
    assert main(["scenario", "swap", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "swap pairs")
    assert shots == [] and not (tmp_path / "o").exists()


def test_scenario_odd_permutation_exit_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "odd.json", {**SWAP4, "pairs": [[1, 2]]})
    assert main(["scenario", "swap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_scenario_wrong_size_waypoint_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "wp.json", {**SWAP4, "waypoints": [np.eye(2).tolist()]})
    assert main(["scenario", "swap", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, base", [("densify", DENSIFY3), ("swap", SWAP4)])
@pytest.mark.parametrize("state", [[1.0, 2.0], "abc", [None, 1.0, 2.0],
                                   [float("nan"), 0.0, 0.0], [True, 0.0, 0.0],
                                   [float("inf"), 0.0, 0.0], ["1", 0.0, 0.0], [[1.0, 2.0, 3.0]]])
def test_scenario_bad_initial_state_exit_one(tmp_path, capsys, kind, base, state):
    if kind == "swap" and isinstance(state, list) and len(state) == 3:
        state = [*state, 4.0]  # the 3-entry states are sized for densify's 3 nodes
    cfg = _write_cfg(tmp_path, "bad.json", {**base, "initial_state": state})
    assert main(["scenario", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "initial_state")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, base, fields", [
    ("densify", DENSIFY3, {"sparse_graph": {"nodes": True}, "dense_graph": {"nodes": 1}}),
    ("densify", DENSIFY3, {"initial_state": [True, 0, 0]}),
    ("densify", DENSIFY3, {"solver": {"max_iter": True}}),
    ("swap", SWAP4, {"pairs": [[True, 2], [3, 4]]}),
    ("swap", SWAP4, {"graph": {"nodes": 4, "edges": [[1, True], [2, 3], [3, 4], [4, 1]]}}),
    ("swap", SWAP4, {"initial_state": [False, 1, 2, 3]}),
    ("swap", SWAP4, {"tf": True}),
])
def test_scenario_json_booleans_exit_one(tmp_path, capsys, kind, base, fields):
    cfg = _write_cfg(tmp_path, "bool.json", {**base, **fields})
    assert main(["scenario", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, base", [
    (["solve"], PATH2_CFG), (["scenario", "densify"], DENSIFY3), (["scenario", "swap"], SWAP4),
])
def test_overflowing_horizon_exit_one(tmp_path, capsys, command, base):
    # t0 and tf are finite, but tf - t0 overflows to inf
    cfg = _write_cfg(tmp_path, "wide.json", {**base, "t0": -1e308, "tf": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: solver settings need finite tf - t0\n"
    assert not (tmp_path / "o").exists()


DENSIFY2 = {"sparse_graph": {"nodes": 2, "edges": [[1, 2]]},
            "dense_graph": {"nodes": 2, "edges": [[1, 2]]}}


@pytest.mark.parametrize("command, base, horizon", [
    (["solve"], PATH2_CFG, {"tf": 1e-322}),
    (["solve"], PATH2_CFG, {"t0": 1e16, "tf": 1.0000000000000002e16}),
    (["scenario", "densify"], DENSIFY2, {"t0": 1e16, "tf": 1.0000000000000002e16}),
    # arc 1 is solvable, but arc 2 crosses 2^53, where floats lie 2 apart
    (["solve"], PATH2_CFG, {"t0": 2.0 ** 53 - 2402, "tf": 2.0 ** 53 + 2398,
                            "waypoints": [[[1.1, 0.1], [0.1, 1.0]]]}),
], ids=["solve-subnormal", "solve-far", "densify-far", "solve-far-arc"])
def test_unresolvable_horizon_exit_one(tmp_path, capsys, monkeypatch, command, base, horizon):
    # tf > t0, but an RK4 step is less than a float spacing at the horizon's
    # end, of the whole horizon or of one arc; either is rejected before any shoot
    shots = count_calls(monkeypatch, optimal_control, "_shoot_batch")
    cfg = _write_cfg(tmp_path, "narrow.json", {**base, **horizon})
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "(tf - t0) / steps")
    assert shots == [] and not (tmp_path / "o").exists()


def test_densify_overflowing_target_exit_one(tmp_path, capsys):
    # tf - t0 is finite, but at 1e308 -L (tf - t0) overflows before expm sees
    # it, and at 3e307 and 1e20 expm's squarings leave the float range
    for tf in (1e308, 3e307, 1e20):
        cfg = _write_cfg(tmp_path, "wide.json", {**DENSIFY3, "tf": tf})
        assert main(["scenario", "densify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(capsys, "tf - t0")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, cfg, words", [
    # the solve converges, but its schedule carries initial_state out of the float range
    ("densify", {**DENSIFY2, "initial_state": [1.7e308, -1.7e308]}, "non-finite"),
    ("swap", {"graph": PATH2_CFG["graph"], "pairs": [], "waypoints": [[[2, 0], [0, 0.5]]],
              "initial_state": [1.7e308, 1]}, "non-finite"),
    # the node states stay finite, but their squared distances to the mean overflow
    ("densify", {**DENSIFY2, "initial_state": [1e200, -1e200]}, "initial_state"),
], ids=["densify-replay", "swap-replay", "densify-errors"])
def test_scenario_beyond_the_float_range_exit_one(tmp_path, capsys, kind, cfg, words):
    path = _write_cfg(tmp_path, "big.json", cfg)
    assert main(["scenario", kind, "--config", path, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, words)
    assert not (tmp_path / "o").exists()


def _run_capped(argv, cwd):
    # the CLI in a child process that caps its own address space at 2 GiB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    env = {**os.environ, "PYTHONPATH": str(Path(nx.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "netxform.cli", *argv], cwd=cwd, env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("argv, text", [
    # 10^12 nodes: an n-by-n edge pattern that no address space holds
    (["check", "--config"], json.dumps({"graph": {"nodes": 1e12}, "target": [[1.0]]})),
    # node 100000 in a schedule header: a 9.3 GiB pattern
    (["simulate", "--xi", "1", "--schedule"], "t,w_1_1,w_100000_100000\n0,0,0\n1,0,0\n"),
], ids=["check-nodes", "simulate-header"])
def test_input_too_large_to_hold_exit_one(tmp_path, argv, text):
    (tmp_path / "input").write_text(text)
    proc = _run_capped(argv + ["input"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "netxform_out").exists()


def test_seed_override_changes_initial_state(tmp_path):
    outs = []
    for seed in (0, 1):
        cfg = _write_cfg(tmp_path, f"densify{seed}.json", {
            "sparse_graph": {"nodes": 2, "edges": [[1, 2]]},
            "dense_graph": {"nodes": 2, "edges": [[1, 2]]},
            "solver": {"seed": seed},
        })
        out = tmp_path / f"out{seed}"
        assert main(["scenario", "densify", "--config", cfg, "--out", str(out)]) == 0
        outs.append(_trajectory(out / "nodes.csv")[1])
    assert not np.array_equal(outs[0][0], outs[1][0])
