"""Command-line entry point: feasibility checks, weight synthesis, simulation,
and the two worked scenarios.

Exit codes: 0 success, 1 usage or malformed input, 2 infeasible problem,
3 solver did not converge (diagnostics are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import csvio
from .dynamics import DynamicsError, propagate_state, simulation_steps
from .graph import InputError, graph_from_json_dict
from .lie_algebra import check_feasible
from .optimal_control import (BvpProblem, InfeasibleError, OptimalControlError,
                              homotopy_singularity_scan, solve_with_waypoints)
from .scenarios import run_densify, run_swap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path}: top level must be an object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise InputError(f"config missing required field {key!r}")
    return cfg[key]


def _settings(cfg: dict, inputs: tuple) -> dict:
    """The settings the config sets, unchecked: BvpProblem's fields with
    defaults, which it checks. t0 and tf sit at the top level beside the
    command's `inputs`, the others under "solver", and nothing else does."""
    top_names = [*inputs, "t0", "tf", "solver"]
    for key in (key for key in cfg if key not in top_names):
        raise InputError(f"field {key!r} is not one of {', '.join(top_names)}")
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise InputError("field 'solver' must be an object")
    solver_names = [f.name for f in fields(BvpProblem)
                    if f.default is not MISSING and f.name not in ("t0", "tf")]
    for key in (key for key in solver if key not in solver_names):
        raise InputError(f"field 'solver.{key}' is not one of {', '.join(solver_names)}")
    return {**{key: cfg[key] for key in ("t0", "tf") if key in cfg}, **solver}


def _graph(cfg: dict, key: str):
    """The graph in config field `key`; an error in it names the field."""
    value = _require(cfg, key)
    try:
        return graph_from_json_dict(value)
    except InputError as exc:
        raise InputError(f"field {key!r}: {exc}") from exc


def _waypoints(cfg: dict) -> list:
    """The config's waypoints, unchecked: solve_with_waypoints checks each."""
    waypoints = cfg.get("waypoints", [])
    if not isinstance(waypoints, list):
        raise InputError("field 'waypoints' must be a list of matrices")
    return waypoints


def write_solution_bundle(sol, outdir: Path) -> None:
    """Emit schedule.csv / transition.csv / costate.csv / solution.json."""
    outdir.mkdir(parents=True, exist_ok=True)
    csvio.write_schedule_csv(outdir / "schedule.csv", sol.schedule)
    csvio.write_trajectory_csv(outdir / "transition.csv", *sol.transition(), prefix="X")
    csvio.write_trajectory_csv(outdir / "costate.csv", *sol.costate(), prefix="lambda")
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
    report = check_feasible(_graph(cfg, "graph"), _require(cfg, "target"))
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    g, target, waypoints = _graph(cfg, "graph"), _require(cfg, "target"), _waypoints(cfg)
    prob = BvpProblem(graph=g, target=target,
                      **_settings(cfg, ("graph", "target", "waypoints")))
    sol = solve_with_waypoints(prob, waypoints)
    if not waypoints and not sol.converged:  # the advice helps only a failed direct solve
        min_det, argmin_s = homotopy_singularity_scan(prob.target)
        if min_det < 0.1:
            print(f"warning: direct homotopy from I to the target is nearly singular "
                  f"(min |det| = {min_det:.3e} at s = {argmin_s}); "
                  f"consider supplying waypoints", file=sys.stderr)
    return _finish(sol, args.out)


def _parse_xi(args, n: int) -> np.ndarray:
    """The initial state from --xi (comma-separated) or --xi-file (a row or a column)."""
    if (args.xi is None) == (args.xi_file is None):
        raise InputError("simulate needs exactly one of --xi and --xi-file")
    flag = "--xi" if args.xi is not None else "--xi-file"
    return csvio.read_initial_state(n, f"initial state from {flag}", args.xi, args.xi_file)


def cmd_simulate(args) -> int:
    g = None if args.config is None else _graph(_load_config(args.config), "graph")
    sched = csvio.read_schedule_csv(args.schedule, None if g is None else g.n)
    if g is not None and (sched.n != g.n or np.any(sched.mask & ~g.mask)):
        raise InputError("schedule sparsity pattern does not match the graph in --config")
    xi = _parse_xi(args, sched.n)
    grid, xs = propagate_state(sched, xi, simulation_steps(sched))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csvio.write_trajectory_csv(outdir / "nodes.csv", grid, xs, prefix="x")
    return EXIT_OK


def cmd_scenario(args) -> int:
    cfg = _load_config(args.config)
    if args.kind == "densify":
        settings = _settings(cfg, ("sparse_graph", "dense_graph", "initial_state"))
        report = run_densify(_graph(cfg, "sparse_graph"), _graph(cfg, "dense_graph"),
                             cfg.get("initial_state"), **settings)
    else:
        settings = _settings(cfg, ("graph", "pairs", "waypoints", "initial_state"))
        g = _graph(cfg, "graph")
        report = run_swap(g, _require(cfg, "pairs"), _waypoints(cfg),
                          cfg.get("initial_state"), **settings)
    code = _finish(report.solution, args.out)
    outdir = Path(args.out)
    csvio.write_trajectory_csv(outdir / "nodes.csv", report.grid, report.node_states, prefix="x")
    if report.errors:
        csvio.write_columns_csv(outdir / "errors.csv", report.grid, report.errors)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netxform",
        description="Decide, synthesize, and simulate local interaction weights "
                    "that make a network compute a global linear transformation.")
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # every subcommand but check writes
    out.add_argument("--out", default="netxform_out", help="output directory")

    sp = sub.add_parser("check", help="feasibility gate for a target matrix")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("solve", parents=[out], help="synthesize the optimal weight schedule")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", parents=[out],
                        help="run node states through an emitted schedule")
    sp.add_argument("--schedule", required=True, help="schedule.csv path")
    sp.add_argument("--xi", default=None, help="comma-separated initial state")
    sp.add_argument("--xi-file", default=None, help="file with the initial state")
    sp.add_argument("--config", default=None, help="optional graph config to validate against")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("scenario", parents=[out], help="run a built-in scenario")
    sp.add_argument("kind", choices=["densify", "swap"])
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_scenario)
    return p


def _joined_xi(argv) -> list:
    """argv with each `--xi V` written `--xi=V`, since argparse would take an
    initial state that starts with a minus sign, such as -1,2, for a flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--xi" and not arg.startswith("--"):
            out[-1] = f"--xi={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command and return its exit code. Errors become exit codes here
    alone: malformed input (InputError), a DynamicsError such as a replay that
    leaves the float range, memory and output-write errors exit 1; an infeasible
    target or waypoint exits 2 and any other solver error 3. Each prints one
    `error:` line."""
    parser = build_parser()
    try:
        args = parser.parse_args(_joined_xi(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # no work is done when no output directory can be made at --out
        out = Path(getattr(args, "out", "."))
        if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
            raise InputError(f"cannot make the output directory {out}: a file is in the way")
        return args.func(args)
    except (InputError, DynamicsError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OptimalControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
