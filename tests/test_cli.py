"""Command-line interface: exit codes, emitted bundles, and round-trips.

Commands are driven through main(argv) in-process; stdout/stderr are
checked via capsys.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import netxform as nx
from netxform.cli import main
from netxform.csvio import (read_matrix_trajectory_csv, read_schedule_csv,
                            read_vector_trajectory_csv)


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


@pytest.mark.parametrize("graph", [
    {"nodes": 2, "edges": [["a", 2]]},
    {"nodes": 2, "edges": [[1]]},
    {"nodes": 2, "edges": 5},
    {"nodes": 2, "edges": [[1.7, 2]]},
    {"nodes": 2.5, "edges": [[1, 2]]},
    {"nodes": 2, "edges": [[1, 2], [2, 1], [1, 1], [2, 2]], "strict": "false"},
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


@pytest.mark.parametrize("target", [
    [[1, 0], [0, True]], [[1, 0], [0, float("-inf")]], [[1, 0], [0, "1"]],
    [[1, 0], [0, None]], [[1, 0], [0]], [1, 0, 0, 1],
])
def test_check_malformed_target_exit_one(tmp_path, capsys, target):
    cfg = _write_cfg(tmp_path, "t.json", {**PATH2_CFG, "target": target})
    assert main(["check", "--config", cfg]) == 1
    _assert_one_error_line(capsys, "'target'")


@pytest.mark.parametrize("fields", [
    {"solver": {"steps": "abc"}}, {"solver": 5}, {"t0": "x"}, {"tf": True},
    {"waypoints": [[[1.0]]]}, {"waypoints": 5},
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

    (sched,) = read_schedule_csv(out / "schedule.csv")
    assert np.abs(sched.W_seq[:, 0, 0] - np.log(2.0)).max() < 1e-6
    grid, X_seq = read_matrix_trajectory_csv(out / "transition.csv")
    assert abs(X_seq[-1][0, 0] - 2.0) < 1e-8
    assert (out / "costate.csv").exists()
    # a one-arc bundle's solution.json is its arc's record, with no segments
    prob = nx.BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]))
    assert "segments" not in sol
    assert sol == nx.solve_bvp(prob).to_json_dict()


def test_solve_identity_target_zero_schedule(tmp_path):
    cfg = _write_cfg(tmp_path, "id.json", {
        "graph": {"nodes": 2, "edges": [[1, 2]]},
        "target": [[1.0, 0.0], [0.0, 1.0]],
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    (sched,) = read_schedule_csv(out / "schedule.csv")
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
    segs = read_schedule_csv(out / "schedule.csv")
    assert len(segs) == 2
    grid, X_seq = read_matrix_trajectory_csv(out / "transition.csv")
    assert np.all(np.diff(grid) > 0)
    assert abs(X_seq[-1][0, 0] - 4.0) < 1e-7
    # the costate jumps at the join, so costate.csv keeps both of its rows
    cgrid, _ = read_matrix_trajectory_csv(out / "costate.csv")
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
])
def test_solve_bad_solver_settings_exit_one(path3_cfg, tmp_path, capsys, fields):
    cfg = json.loads(Path(path3_cfg).read_text())
    cfg.update(fields)
    path = _write_cfg(tmp_path, "bad.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    (key, value), = fields.items()
    _assert_one_error_line(capsys, next(iter(value)) if key == "solver" else key)


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


def test_solve_non_finite_waypoint_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "wp.json", {
        "graph": {"nodes": 1, "edges": []},
        "target": [[4.0]],
        "waypoints": [[[float("inf")]]],
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "waypoints[0]" in capsys.readouterr().err


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
    _assert_one_error_line(capsys, "waypoints")


def test_solve_singular_waypoint_exit_two(tmp_path, capsys):
    # det > 0 passes the gate, but the next arc's target needs its inverse
    cfg = _write_cfg(tmp_path, "wp.json",
                     {**PATH2_CFG, "waypoints": [np.diag([1e-20, 1.0]).tolist()]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys, "waypoint 1")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# shared flags


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--out", "d"),
    ("check", "--seed", "1"),
    ("check", "--steps", "5"),
    ("simulate", "--seed", "1"),
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


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_schedule_keeps_state(tmp_path):
    msk = nx.mask(nx.path_graph(2))
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, [sched])
    out = tmp_path / "out"
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2",
                 "--out", str(out)]) == 0
    grid, xs = read_vector_trajectory_csv(out / "nodes.csv")
    assert np.array_equal(xs[-1], [1.0, 2.0])


def test_simulate_solved_schedule_reaches_target(path3_cfg, tmp_path):
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", path3_cfg, "--out", str(out)]) == 0
    sim = tmp_path / "sim_out"
    assert main(["simulate", "--schedule", str(out / "schedule.csv"),
                 "--xi", "1,0,0", "--config", path3_cfg,
                 "--out", str(sim)]) == 0
    _, xs = read_vector_trajectory_csv(sim / "nodes.csv")
    assert np.abs(xs[-1] - [0.8, 0.1, 0.1]).max() < 1e-7


def test_simulate_reproduces_transition_action(path3_cfg, tmp_path):
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", path3_cfg, "--out", str(out)]) == 0
    _, X_seq = read_matrix_trajectory_csv(out / "transition.csv")
    xi = np.array([0.3, -1.2, 0.9])
    sim = tmp_path / "sim_out"
    assert main(["simulate", "--schedule", str(out / "schedule.csv"),
                 "--xi", ",".join(map(str, xi)), "--out", str(sim)]) == 0
    _, xs = read_vector_trajectory_csv(sim / "nodes.csv")
    assert np.linalg.norm(xs[-1] - X_seq[-1] @ xi) < 1e-7


def test_simulate_mask_mismatch_exit_one(tmp_path, capsys):
    msk = nx.mask(nx.complete_graph(3))
    sched = nx.constant_schedule(np.zeros((3, 3)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, [sched])
    cfg = _write_cfg(tmp_path, "g.json",
                     {"graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
                      "target": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2,3",
                 "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "sparsity" in capsys.readouterr().err


def test_simulate_bad_xi_exit_one(tmp_path, capsys):
    msk = nx.mask(nx.path_graph(2))
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, [sched])
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
    ("--xi", "1,2,3"),       # wrong length
    ("--xi-file", "1,2\n3,4"),  # wrong shape
])
def test_simulate_bad_xi_values_exit_one(tmp_path, capsys, flag, value):
    msk = nx.mask(nx.path_graph(2))
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, [sched])
    if flag == "--xi-file":
        (tmp_path / "xi.csv").write_text(value + "\n")
        value = str(tmp_path / "xi.csv")
    assert main(["simulate", "--schedule", str(spath), flag, value,
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, flag)


def test_simulate_bad_steps_exit_one(tmp_path, capsys):
    msk = nx.mask(nx.path_graph(2))
    sched = nx.constant_schedule(np.zeros((2, 2)), 0.0, 1.0, msk)
    from netxform.csvio import write_schedule_csv
    spath = tmp_path / "s.csv"
    write_schedule_csv(spath, [sched])
    assert main(["simulate", "--schedule", str(spath), "--xi", "1,2", "--steps", "0",
                 "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_swap_bundle(tmp_path):
    cfg = _write_cfg(tmp_path, "swap.json", {
        "graph": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "pairs": [[1, 2], [3, 4]],
    })
    out = tmp_path / "out"
    assert main(["scenario", "swap", "--config", cfg, "--out", str(out)]) == 0
    _, xs = read_vector_trajectory_csv(out / "nodes.csv")
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
    grid, _ = read_matrix_trajectory_csv(out / "transition.csv")
    errors = np.loadtxt(out / "errors.csv", delimiter=",", skiprows=1)
    for t in (grid, errors[:, 0]):
        assert t[0] == 1.0 and t[-1] == 1.5


@pytest.mark.parametrize("kind, base, fields", [
    ("densify", DENSIFY3, {"solver": {"steps": 0}}),
    ("densify", DENSIFY3, {"tf": "inf"}),
    ("densify", DENSIFY3, {"t0": 2.0}),
    ("swap", SWAP4, {"solver": {"restarts": -1}}),
    ("swap", SWAP4, {"solver": {"max_iter": "x"}}),
])
def test_scenario_bad_solver_settings_exit_one(tmp_path, capsys, kind, base, fields):
    cfg = _write_cfg(tmp_path, "bad.json", {**base, **fields})
    assert main(["scenario", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pairs", [
    [["a", 2]], [[1, 2, 3]], 5, *([[1, 2], [3, bad]] for bad in BAD_NUMBERS), [[1, 2], [3, 4.5]],
])
def test_scenario_bad_swap_pairs_exit_one(tmp_path, capsys, pairs):
    cfg = _write_cfg(tmp_path, "bad.json", {**SWAP4, "pairs": pairs})
    assert main(["scenario", "swap", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "swap pairs")
    assert not (tmp_path / "o").exists()


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


def test_densify_overflowing_target_exit_one(tmp_path, capsys):
    # tf - t0 is finite, but -L (tf - t0) overflows before expm sees it
    cfg = _write_cfg(tmp_path, "wide.json", {**DENSIFY3, "tf": 1e308})
    assert main(["scenario", "densify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys, "tf - t0")
    assert not (tmp_path / "o").exists()


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
        outs.append(read_vector_trajectory_csv(out / "nodes.csv")[1])
    assert not np.array_equal(outs[0][0], outs[1][0])
