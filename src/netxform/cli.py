"""Command-line entry point: feasibility checks, weight synthesis, simulation,
and the two worked scenarios.

Exit codes: 0 success, 1 usage or malformed input, 2 infeasible problem,
3 solver did not converge (diagnostics are still written).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import csvio
from .dynamics import DynamicsError, propagate_state_through, simulation_steps
from .graph import GraphError, graph_from_json_dict, mask, numeric_array
from .lie_algebra import check_feasible
from .optimal_control import (BvpProblem, InfeasibleError, OptimalControlError,
                              SettingsError, homotopy_singularity_scan,
                              solve_with_waypoints)
from .scenarios import (DensifyScenario, ScenarioError, SwapScenario,
                        run_densify, run_swap)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3


class ConfigError(ValueError):
    """Malformed configuration file."""


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required field {key!r}")
    return cfg[key]


def _matrix(value, name: str, n: int) -> np.ndarray:
    """A finite n-by-n matrix, for a graph of n nodes."""
    try:
        M = numeric_array(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if M.shape != (n, n):
        raise ConfigError(f"field {name!r} must be a {n}x{n} row-major matrix "
                          f"for a graph of {n} nodes, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"field {name!r} has non-finite entries")
    return M


def _number(value, name: str, kind=float):
    """A finite number (a whole one for kind=int); ranges are BvpProblem's.
    JSON true/false is not a number."""
    try:
        x = float(value)
        ok = (not isinstance(value, bool) and math.isfinite(x)
              and (kind is float or x.is_integer()))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"field {name!r} must be a finite "
                          f"{'integer' if kind is int else 'number'}, got {value!r}")
    return kind(x)


# Solver settings a config may set; BvpProblem holds their defaults and ranges.
_SOLVER_FIELDS = {"steps": int, "newton_tol": float, "max_iter": int, "restarts": int,
                  "seed": int}


def _settings(cfg: dict, args) -> dict:
    """The horizon and solver settings the config or the flags set."""
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("field 'solver' must be an object")
    settings = {key: _number(cfg[key], key) for key in ("t0", "tf") if key in cfg}
    settings.update((key, _number(solver[key], f"solver.{key}", kind))
                    for key, kind in _SOLVER_FIELDS.items() if key in solver)
    for key in ("seed", "steps"):
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    return settings


def _waypoints(cfg: dict, n: int) -> list:
    waypoints = cfg.get("waypoints", [])
    if not isinstance(waypoints, list):
        raise ConfigError("field 'waypoints' must be a list of matrices")
    return [_matrix(W, f"waypoints[{k}]", n) for k, W in enumerate(waypoints)]


def _parse_problem(cfg: dict, args):
    g = graph_from_json_dict(_require(cfg, "graph"))
    target = _matrix(_require(cfg, "target"), "target", g.n)
    return g, target, _waypoints(cfg, g.n), _settings(cfg, args)


def write_solution_bundle(sol, outdir: Path) -> None:
    """Emit schedule.csv / transition.csv / costate.csv / solution.json."""
    outdir.mkdir(parents=True, exist_ok=True)
    arcs = sol.segments()
    csvio.write_schedule_csv(outdir / "schedule.csv", [a.schedule for a in arcs])
    csvio.write_matrix_trajectory_csv(outdir / "transition.csv", *sol.transition(), prefix="X")
    # the costate jumps at a join, so both of a join's rows are kept
    csvio.write_matrix_trajectory_csv(outdir / "costate.csv",
                                      np.concatenate([a.grid for a in arcs]),
                                      np.concatenate([a.lambda_seq for a in arcs]),
                                      prefix="lambda")
    with open(outdir / "solution.json", "w") as fh:
        json.dump(sol.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _finish(sol, out) -> int:
    """Write the bundle to `out`; a solve that did not converge exits 3."""
    write_solution_bundle(sol, Path(out))
    if sol.converged:
        return EXIT_OK
    print(f"solver did not converge (residual {sol.residual_norm:.3e}); "
          f"diagnostics written to {out}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    g, target, _, _ = _parse_problem(cfg, args)
    report = check_feasible(g, target)
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    g, target, waypoints, settings = _parse_problem(cfg, args)
    prob = BvpProblem(graph=g, target=target, **settings)
    if not waypoints:
        min_det, argmin_s = homotopy_singularity_scan(target)
        if min_det < 0.1:
            print(f"warning: direct homotopy from I to the target is nearly singular "
                  f"(min |det| = {min_det:.3e} at s = {argmin_s}); "
                  f"consider supplying waypoints", file=sys.stderr)
    return _finish(solve_with_waypoints(prob, waypoints), args.out)


def _parse_xi(args, n: int) -> np.ndarray:
    """The initial state from --xi (comma-separated) or, failing that, --xi-file."""
    if args.xi is None and args.xi_file is None:
        raise ConfigError("simulate needs --xi or --xi-file")
    source = io.StringIO(args.xi) if args.xi is not None else args.xi_file
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the shape check below reports an empty input
            xi = np.loadtxt(source, delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read the initial state: {exc}") from exc
    if xi.shape != (n,):
        raise ConfigError(f"initial state has {xi.size} entries, schedule expects {n}")
    if not np.all(np.isfinite(xi)):
        raise ConfigError("initial state has non-finite entries")
    return xi


def cmd_simulate(args) -> int:
    schedules = csvio.read_schedule_csv(args.schedule)
    n = schedules[0].n
    if args.config is not None:
        cfg = _load_config(args.config)
        g = graph_from_json_dict(_require(cfg, "graph"))
        if not np.array_equal(mask(g).entries, schedules[0].mask.entries):
            raise ConfigError("schedule sparsity pattern does not match the graph in --config")
    xi = _parse_xi(args, n)
    # default step count tracks the schedule grid (see simulation_steps)
    steps = args.steps if args.steps is not None else simulation_steps(schedules[0])
    try:
        grid, xs = propagate_state_through(schedules, xi, steps)
    except DynamicsError as exc:  # --steps < 1, or a schedule that overflows
        raise ConfigError(str(exc)) from exc
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csvio.write_vector_trajectory_csv(outdir / "nodes.csv", grid, xs)
    return EXIT_OK


def cmd_scenario(args) -> int:
    cfg = _load_config(args.config)
    settings = _settings(cfg, args)
    if args.kind == "densify":
        scen = DensifyScenario(
            sparse_graph=graph_from_json_dict(_require(cfg, "sparse_graph")),
            dense_graph=graph_from_json_dict(_require(cfg, "dense_graph")),
            initial_state=cfg.get("initial_state"))
        report = run_densify(scen, **settings)
    else:
        g = graph_from_json_dict(_require(cfg, "graph"))
        scen = SwapScenario(graph=g, pairs=_require(cfg, "pairs"),
                            waypoints=tuple(_waypoints(cfg, g.n)),
                            initial_state=cfg.get("initial_state"))
        report = run_swap(scen, **settings)
    code = _finish(report.solution, args.out)
    outdir = Path(args.out)
    csvio.write_vector_trajectory_csv(outdir / "nodes.csv", report.grid, report.node_states)
    if report.errors:
        csvio.write_columns_csv(outdir / "errors.csv", ["t", *report.errors],
                                [report.grid, *report.errors.values()])
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netxform",
        description="Decide, synthesize, and simulate local interaction weights "
                    "that make a network compute a global linear transformation.")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {"out": dict(default="netxform_out", help="output directory"),
              "seed": dict(type=int, default=None, help="override config seed"),
              "steps": dict(type=int, default=None, help="override integration steps")}

    def flags(sp, *names):
        """The shared flags a subcommand reads; `check` reads none of them."""
        for name in names:
            sp.add_argument(f"--{name}", **shared[name])

    sp = sub.add_parser("check", help="feasibility gate for a target matrix")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("solve", help="synthesize the optimal weight schedule")
    sp.add_argument("--config", required=True)
    flags(sp, "out", "seed", "steps")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="run node states through an emitted schedule")
    sp.add_argument("--schedule", required=True, help="schedule.csv path")
    sp.add_argument("--xi", default=None, help="comma-separated initial state")
    sp.add_argument("--xi-file", default=None, help="file with the initial state")
    sp.add_argument("--config", default=None, help="optional graph config to validate against")
    flags(sp, "out", "steps")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("scenario", help="run a built-in scenario")
    sp.add_argument("kind", choices=["densify", "swap"])
    sp.add_argument("--config", required=True)
    flags(sp, "out", "seed", "steps")
    sp.set_defaults(func=cmd_scenario)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, GraphError, ScenarioError, csvio.CsvFormatError,
            SettingsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptimalControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
