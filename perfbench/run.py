#!/usr/bin/env python3
"""netxform benchmark: four workloads driven through `netxform.cli.main`.

    python3 perfbench/run.py --workload densify5 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest [--workload sweep]

Run from the root of a source checkout; the program is imported from
`src/`. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1). The line before it is a detail
report: per-problem results, baseline counters and run metadata. Reports and
trace spans are also written under `.perfbench/`. The exit code is 1 when an
output check fails and 2 when the program cannot be loaded.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("densify5", "swap4", "sweep", "replay")
NEWTON_TOL = 1e-8    # the CLI's default solver.newton_tol
STATE_TOL = 1e-6     # simulated final state, relative to max(1, |reference|)
SETUP_PROBES = 4     # fresh-interpreter set-ups besides the in-process one
# The operation each workload exists to time; op_s.p50 is taken over these.
# Checks and the simulate runs after a sweep solve take milliseconds, and a
# median over them would measure timer noise.
MAIN_KIND = {"densify5": "scenario", "swap4": "scenario", "sweep": "solve",
             "replay": "simulate"}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_s.p50": "s", "ops_per_s": "1/s",
    "converged_frac": "ratio", "cost_J": "energy", "peak_rss_mb": "MB",
}

# Baseline counters of the solver at the time the benchmark was defined.
BASELINE = {
    "densify5": {"segments": 5, "iterations": [120, 0, 0, 0, 0],
                 "restart_used": [0, 0, 0, 0, 0], "cost": 371.88},
    "swap4": {"segments": 2, "iterations": [113, 11], "restart_used": [2, 0],
              "cost": 32.35},
}


class LoadError(RuntimeError):
    """The program's sources are not where the benchmark expects them."""


def load_program():
    if not (SRC / "netxform" / "__init__.py").is_file():
        raise LoadError(f"no netxform sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netxform
    import netxform.cli
    if Path(netxform.__file__).resolve().parent != SRC / "netxform":
        raise LoadError(f"imported netxform from {netxform.__file__}, not from {SRC}")
    return netxform


# ---------------------------------------------------------------------------
# Workloads as lists of CLI operations with their checks.

class Op:
    """One CLI call. `argv(passdir)` builds its arguments; `check(passdir,
    stdout)` returns (failures, info) for a call that exited 0."""

    def __init__(self, label, kind, argv, check, problem):
        self.label, self.kind, self.argv, self.check = label, kind, argv, check
        self.problem = problem  # unit counted by converged_frac


def _scenario_ops(kind, cfg_path, target, pat):
    def check(d, out):
        fails, info = checks.check_bundle(d / kind, target, pat, NEWTON_TOL)
        x0, xf = checks.nodes_endpoints(d / kind)
        fails += checks.check_state(xf, target @ x0, STATE_TOL)
        return fails, info
    return [Op(kind, "scenario",
               lambda d: ["scenario", kind, "--config", str(cfg_path), "--out", str(d / kind)],
               check, kind)]


def _sweep_ops(inputs, probs):
    ops = []
    for k, p in enumerate(probs):
        cfg = inputs / f"problem{k}.json"
        wl.write_json(cfg, p.config())
        label = f"{k}_{p.name}"
        pat = wl.pattern(p.n, p.edges)

        def check_feasible_out(d, out):
            rep = json.loads(out.strip().splitlines()[-1])
            return ([] if rep.get("feasible") is True else ["check did not report feasible"]), {}

        def check_solve(d, out, p=p, label=label, pat=pat):
            return checks.check_bundle(d / label, p.target, pat, NEWTON_TOL)

        ops += [
            Op(f"{label}.check", "check",
               lambda d, cfg=cfg: ["check", "--config", str(cfg)], check_feasible_out, label),
            Op(f"{label}.solve", "solve",
               lambda d, cfg=cfg, label=label: ["solve", "--config", str(cfg),
                                                "--out", str(d / label)], check_solve, label)]
        for j, x in enumerate(p.xis):
            sim = f"{label}.simulate{j}"

            def check_sim(d, out, want=p.target @ x, sim=sim):
                _, xf = checks.nodes_endpoints(d / sim)
                return checks.check_state(xf, want, STATE_TOL), {}

            xi = ",".join(repr(float(v)) for v in x)
            ops.append(Op(sim, "simulate",
                          lambda d, cfg=cfg, label=label, xi=xi, sim=sim: [
                              "simulate", "--schedule", str(d / label / "schedule.csv"),
                              f"--xi={xi}", "--config", str(cfg), "--out", str(d / sim)],
                          check_sim, label))
    return ops


def _replay_ops(inputs, scheds):
    ops = []
    for k, s in enumerate(scheds):
        path = inputs / f"schedule{k}.csv"
        wl.write_schedule(path, s)
        label = f"{k}_n{s.n}"

        def check(d, out, s=s, label=label):
            _, xf = checks.nodes_endpoints(d / label)
            return checks.check_state(xf, s.final, STATE_TOL), {}

        xi = ",".join(repr(float(v)) for v in s.xi)
        ops.append(Op(label, "simulate",
                      lambda d, path=path, label=label, xi=xi: [
                          "simulate", "--schedule", str(path), f"--xi={xi}",
                          "--out", str(d / label)], check, label))
    return ops


def build_workload(name, seed, inputs, small=False):
    """Write the workload's inputs; return (ops, reference cost_J, problem rows)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "densify5":
        cfg = inputs / "densify.json"
        wl.write_json(cfg, wl.densify5_config())
        return (_scenario_ops("densify", cfg, wl.densify5_target(),
                              wl.pattern(5, wl.path_edges(5))), None, [])
    if name == "swap4":
        cfg = inputs / "swap.json"
        c = wl.swap4_config()
        wl.write_json(cfg, c)
        return _scenario_ops("swap", cfg, wl.swap4_target(),
                             wl.pattern(4, [tuple(e) for e in c["graph"]["edges"]])), None, []
    if name == "sweep":
        probs = wl.sweep_problems(seed, count=2 if small else None)
        rows = [{"problem": f"{k}_{p.name}", "n": p.n, "edges": len(p.edges),
                 "target_kind": p.kind} for k, p in enumerate(probs)]
        return _sweep_ops(inputs, probs), None, rows
    if name == "replay":
        scheds = (wl.replay_schedules(seed, sizes=(8,)) if small
                  else wl.replay_schedules(seed))
        return _replay_ops(inputs, scheds), sum(s.energy() for s in scheds), []
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement

def run_pass(nx, ops, passdir, results, npass, tracer=None):
    """Run every op once, timing each CLI call alone and checking its
    outputs after the clock stops. Returns the op times."""
    passdir.mkdir(parents=True)
    times = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        argv = op.argv(passdir)
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = nx.cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        times.append(dt)
        if rc != 0:
            fails, info = [f"exit {rc}: {err.getvalue().strip()[-300:]}"], {}
        else:
            try:
                fails, info = op.check(passdir, out.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails, info = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
        results.append({"op": op.label, "kind": op.kind, "problem": op.problem,
                        "pass": npass, "traced": tracer is not None, "s": dt, "cpu_s": cpu,
                        "fails": fails, **info})
    shutil.rmtree(passdir)
    return times


def measure(nx, ops, seconds, trace, work):
    """Untraced passes for about `seconds` (at least one; exactly one with
    trace), then with trace one traced pass over the same ops."""
    results, pass_times, op_times = [], [], []
    t0 = time.perf_counter()
    while True:
        times = run_pass(nx, ops, work / f"pass{len(pass_times)}", results, len(pass_times))
        pass_times.append(sum(times))
        op_times += times
        if trace or time.perf_counter() - t0 + statistics.median(pass_times) > seconds:
            break
    tracer = traced_wall = None
    if trace:
        tracer = Tracer()
        with tracer.installed(nx):
            traced_wall = sum(run_pass(nx, ops, work / "traced", results,
                                       len(pass_times), tracer))
    return results, pass_times, op_times, tracer, traced_wall


# ---------------------------------------------------------------------------
# Reporting

def mark_unstable_outputs(results):
    """solution.json must be byte-identical in every pass of a run, traced
    or not; a differing pass fails the op."""
    first = {}
    for r in results:
        sha = r.get("solution_sha256")
        if sha is None:
            continue
        first.setdefault(r["op"], sha)
        if sha != first[r["op"]]:
            r["fails"].append("solution.json differs from the first pass")


def end_to_end(results, pass_times, op_times, main_times, setup_s, replay_cost):
    problems = {}
    for r in results:
        problems[r["problem"]] = problems.get(r["problem"], True) and not r["fails"]
    first = [r for r in results if r["pass"] == 0]
    costs = [r["cost"] for r in first if r.get("cost") is not None]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_times),
        "op_s.p50": statistics.median(main_times),
        "ops_per_s": len(op_times) / sum(op_times),
        "converged_frac": sum(problems.values()) / len(problems),
        "cost_J": replay_cost if replay_cost is not None else float(sum(costs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


PER_LAYER_CALLS = ("optimal_control.shoot", "optimal_control.solve_bvp",
                   "dynamics.determinant", "dynamics.solve_linear",
                   "dynamics.propagate_state", "lie_algebra.check_feasible")
PER_LAYER_TIMES = PER_LAYER_CALLS + ("optimal_control.homotopy_singularity_scan",
                                     "cli.write_solution_bundle",
                                     "scenarios.contraction_waypoints")
COUNTERS = ("optimal_control.shoot.rk4_steps", "optimal_control.newton_iters",
            "optimal_control.restarts_used", "dynamics.propagate_state.steps",
            "csvio.bytes_written", "scenarios.segments")


def per_layer(tracer, traced_results, traced_wall, untraced_wall):
    """Per-layer metrics of the traced pass: name -> (value, unit)."""
    summ = tracer.summary()

    def total(prefix, field):
        return sum(v[field] for k, v in summ.items() if k.startswith(prefix))

    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (summ.get(name, {}).get("calls", 0), "count")
    for name in PER_LAYER_TIMES:
        m[f"{name}.s"] = (summ.get(name, {}).get("s", 0.0), "s")
    m["optimal_control.solve_bvp.self_s"] = (summ.get("optimal_control.solve_bvp", {})
                                             .get("self_s", 0.0), "s")
    for name in COUNTERS:
        m[name] = (tracer.counters[name], "bytes" if name.endswith("bytes_written") else "count")
    iters = tracer.counters["optimal_control.newton_iters"]
    m["optimal_control.s_per_newton_iter"] = (
        m["optimal_control.solve_bvp.s"][0] / iters if iters else 0.0, "s")
    m["optimal_control.join_jump_rel"] = (
        max([r.get("join_jump_rel", 0.0) for r in traced_results], default=0.0), "ratio")
    m["csvio.read.s"] = (total("csvio.read_", "s"), "s")
    m["csvio.write.s"] = (total("csvio.write_", "s"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (total(f"{layer}.", "self_s"), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def metadata(nx):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    worker_count = getattr(nx.optimal_control, "worker_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "worker_count": worker_count() if worker_count else None,
        "NETXFORM_THREADS": os.environ.get("NETXFORM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def baseline_check(name, results):
    if name not in BASELINE:
        return None
    r = next(r for r in results if r["pass"] == 0)
    observed = {"segments": len(r.get("iterations", [])), "iterations": r.get("iterations"),
                "restart_used": r.get("restart_used"),
                "cost": round(r["cost"], 2) if r.get("cost") is not None else None}
    return {"expected": BASELINE[name], "observed": observed,
            "match": observed == BASELINE[name]}


def problem_table(rows, results):
    """One row per sweep problem from the first pass."""
    by_op = {r["op"]: r for r in results if r["pass"] == 0}
    table = []
    for row in rows:
        solve = by_op.get(f"{row['problem']}.solve", {})
        ok = all(not r["fails"] for r in results if r["problem"] == row["problem"])
        table.append({**row, "iterations": sum(solve.get("iterations", [0])),
                      "restart_used": max(solve.get("restart_used", [0])),
                      "converged": ok, "solve_s": solve.get("s")})
    return table


def run_workload(nx, name, seed, seconds, trace, work, built=None, setup_s=None,
                 small=False):
    """Measure and check one workload, set up by `built` (the result of
    build_workload) or here; returns the detail report."""
    t0 = time.perf_counter()
    ops, replay_cost, rows = built or build_workload(name, seed, work / "inputs", small)
    if setup_s is None:
        setup_s = time.perf_counter() - t0
    results, pass_times, op_times, tracer, traced_wall = measure(nx, ops, seconds, trace, work)
    main_times = [r["s"] for r in results if r["kind"] == MAIN_KIND[name] and not r["traced"]]
    mark_unstable_outputs(results)
    failed = [r for r in results if r["fails"]]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not failed, "attempted": len(results), "failed": len(failed),
        "passes": len(pass_times), "pass_s": pass_times, "ops_per_pass": len(ops),
        "end_to_end": end_to_end(results, pass_times, op_times, main_times, setup_s,
                                 replay_cost),
        "failures": [{"op": r["op"], "pass": r["pass"], "fails": r["fails"]} for r in failed],
        "baseline": baseline_check(name, results),
        "metadata": metadata(nx),
    }
    report["op_s"] = [[r["op"], r["pass"], r["traced"], r["s"], r["cpu_s"]] for r in results]
    if len(main_times) >= 100:  # at least ten samples beyond the 90th percentile
        report["op_s.p90"] = statistics.quantiles(main_times, n=10)[-1]
    report["op_samples"] = len(main_times)
    if rows:
        report["problems"] = problem_table(rows, results)
    if trace:
        traced = [r for r in results if r["traced"]]
        report["per_layer"] = per_layer(tracer, traced, traced_wall, pass_times[0])
        report["tracer"] = tracer
    return report


def result_line(report, trace):
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in report["end_to_end"].items()}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def setup_probe(name, seed):
    """Time a fresh-interpreter set-up in a child process: import plus input
    generation, the same span the parent measures for itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def selftest(nx, names, work):
    """One small traced run per workload: generation, checks, both metric
    sets, the trace file and the baseline counters."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    problems = []
    for name in names:
        t0 = time.perf_counter()
        rep = run_workload(nx, name, 0, 0, True, work / name, small=True)
        e2e = json.loads(result_line(rep, False))["metrics"]
        layer = json.loads(result_line(rep, True))["metrics"]
        if not rep["correct"]:
            problems.append(f"{name}: output checks failed: {rep['failures']}")
        if rep["baseline"] is not None and not rep["baseline"]["match"]:
            problems.append(f"{name}: baseline counters differ: {rep['baseline']}")
        if bench is not None:
            for key, got in (("end_to_end", e2e), ("per_layer", layer)):
                want = {m["name"]: m["unit"] for m in bench[key]}
                if want != {k: v["unit"] for k, v in got.items()}:
                    problems.append(f"{name}: {key} names or units differ from BENCHMARK.json")
        rep["tracer"].write(work / f"spans_{name}.json")
        if not json.loads((work / f"spans_{name}.json").read_text())["spans"]:
            problems.append(f"{name}: the traced pass recorded no spans")
        print(f"selftest {name}: {'ok' if rep['correct'] else 'FAILED'} "
              f"in {time.perf_counter() - t0:.1f} s, {len(rep['tracer'].spans)} spans",
              flush=True)
    for p in problems:
        print(f"selftest problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="small traced run of each workload (or of --workload)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    try:
        nx = load_program()
    except (LoadError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload or 'selftest'}-{args.seed}-{os.getpid()}"
    try:
        if args.selftest:
            return selftest(nx, [args.workload] if args.workload else WORKLOADS, work)
        if args.setup_probe:
            build_workload(args.workload, args.seed, work / "inputs")
            print(time.perf_counter() - T_START)
            return 0
        built = build_workload(args.workload, args.seed, work / "inputs")
        setups = [time.perf_counter() - T_START]
        setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        report = run_workload(nx, args.workload, args.seed, args.seconds, bool(args.trace),
                              work, built=built, setup_s=statistics.median(setups))
        report["setup_samples_s"] = setups
        result = result_line(report, bool(args.trace))
        tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        if args.trace:
            report.pop("tracer").write(OUT / f"spans_{tag}.json")
        detail = json.dumps(report, default=float)
        (OUT / f"report_{tag}.json").write_text(detail + "\n")
        print(detail)
        print(result)
        return 0 if report["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
