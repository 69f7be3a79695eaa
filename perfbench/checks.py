"""Output checks on the files the CLI writes, parsed without the program."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def read_rows(path: Path) -> tuple:
    """(header, rows as a float array) of a CSV file written by the CLI."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], np.array(rows[1:], dtype=float)


def final_transition(outdir: Path) -> np.ndarray:
    header, rows = read_rows(outdir / "transition.csv")
    n = int(round((len(header) - 1) ** 0.5))
    return rows[-1, 1:].reshape(n, n)


def schedule_columns(outdir: Path) -> set:
    with open(outdir / "schedule.csv", newline="") as fh:
        header = next(csv.reader(fh))
    return {tuple(int(v) - 1 for v in name.split("_")[1:]) for name in header[1:]}


def join_jump_rel(outdir: Path) -> float:
    """Largest change of any weight across a segment join of schedule.csv,
    over the largest weight magnitude on either side of a join; 0 for a
    single segment."""
    _, rows = read_rows(outdir / "schedule.csv")
    t, W = rows[:, 0], rows[:, 1:]
    joins = np.flatnonzero(np.diff(t) <= 0.0) + 1
    if joins.size == 0:
        return 0.0
    jump = np.abs(W[joins] - W[joins - 1]).max()
    return float(jump / np.abs(np.concatenate([W[joins], W[joins - 1]])).max())


def nodes_endpoints(outdir: Path) -> tuple:
    """(first, last) node state of nodes.csv."""
    _, rows = read_rows(outdir / "nodes.csv")
    return rows[0, 1:], rows[-1, 1:]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_bundle(outdir: Path, target: np.ndarray, pat: np.ndarray, tol: float) -> tuple:
    """Checks on a solve or scenario bundle: convergence flag, recomputed
    terminal residual below the Newton tolerance, schedule columns equal to
    the graph's pattern. Returns (failures, info)."""
    fails = []
    sol = json.loads((outdir / "solution.json").read_text())
    if sol.get("converged") is not True:
        fails.append("solution.json reports converged=false")
    resid = float(np.linalg.norm(final_transition(outdir) - target))
    if not resid < tol:
        fails.append(f"|X(tf) - T| = {resid:.3e} is not below {tol:.1e}")
    expected = {tuple(ij) for ij in np.argwhere(pat)}
    if schedule_columns(outdir) != expected:
        fails.append("schedule.csv columns differ from the graph's sparsity pattern")
    segs = sol.get("segments", [sol])
    info = {"converged": sol.get("converged"), "cost": sol.get("cost"),
            "iterations": [s["iterations"] for s in segs],
            "restart_used": [s["restart_used"] for s in segs],
            "residual": resid, "join_jump_rel": join_jump_rel(outdir),
            "solution_sha256": digest(outdir / "solution.json")}
    return fails, info


def check_state(got: np.ndarray, want: np.ndarray, tol: float) -> list:
    err = float(np.linalg.norm(got - want))
    scale = max(1.0, float(np.linalg.norm(want)))
    if not err <= tol * scale:
        return [f"final state off by {err:.3e} (allowed {tol * scale:.1e})"]
    return []
