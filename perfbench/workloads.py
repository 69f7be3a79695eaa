"""Inputs of the four benchmark workloads, made from numpy alone.

Every input is a pure function of the workload seed. Targets are computed
here, not by the program, so the output checks compare the program against
matrices it did not produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The sweep's problem templates are drawn once from this fixed seed; the
# run seed relabels their nodes, orders them and picks the simulate states.
# Relabelling leaves the work of a solve unchanged, so runs with different
# seeds stay comparable while the program still sees different inputs. Pool
# seed 4 is the first tried whose templates all converge at restart 0 with
# default settings: a template that fails spends 9 starts of 50 iterations,
# 60 to 100 s, more than a run has.
SWEEP_POOL_SEED = 4
SWEEP_EPS = 0.25  # near-identity targets exp(eps G), |G|_F = 1
SWEEP_TAU = 0.1   # consensus targets exp(-L_dense tau)
SWEEP_STATES = 3  # simulate runs per solved problem
REPLAY_SIZES = (8, 11, 14, 17, 20)  # odd count: the median op is a middle size
REPLAY_GRID = 2001


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    A = np.asarray(A, dtype=float)
    s = max(0, int(np.ceil(np.log2(max(np.abs(A).sum(axis=1).max(), 1e-300) / 0.25))))
    B = A / 2.0 ** s
    E = term = np.eye(A.shape[0])
    for k in range(1, 30):
        term = term @ B / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def laplacian(n: int, edges) -> np.ndarray:
    L = np.zeros((n, n))
    for i, j in edges:
        L[i - 1, j - 1] = L[j - 1, i - 1] = -1.0
    L[np.diag_indices(n)] = -L.sum(axis=1)
    return L


def pattern(n: int, edges) -> np.ndarray:
    """Boolean sparsity pattern: the edges both ways plus the diagonal."""
    P = np.eye(n, dtype=bool)
    for i, j in edges:
        P[i - 1, j - 1] = P[j - 1, i - 1] = True
    return P


def random_connected_edges(rng, n: int, extra: int) -> list:
    """A random spanning tree plus `extra` further distinct edges (1-based)."""
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[k]) + 1, int(order[rng.integers(k)]) + 1)))
             for k in range(1, n)}
    free = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) not in edges]
    for idx in rng.choice(len(free), size=min(extra, len(free)), replace=False):
        edges.add(free[idx])
    return sorted(edges)


def path_edges(n: int) -> list:
    return [(i, i + 1) for i in range(1, n)]


def complete_edges(n: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def graph_json(n: int, edges) -> dict:
    return {"nodes": n, "edges": [[int(i), int(j)] for i, j in edges]}


# ---------------------------------------------------------------------------
# Scenario workloads: fixed inputs, identical to the test fixtures.

def densify5_config() -> dict:
    return {"sparse_graph": graph_json(5, path_edges(5)),
            "dense_graph": graph_json(5, complete_edges(5))}


def densify5_target() -> np.ndarray:
    return expm(-laplacian(5, complete_edges(5)))


def swap4_config() -> dict:
    return {"graph": graph_json(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
            "pairs": [[1, 2], [3, 4]]}


def swap4_target() -> np.ndarray:
    return np.eye(4)[[1, 0, 3, 2]]


# ---------------------------------------------------------------------------
# sweep: small direct problems run as check, solve, simulate.

@dataclass
class SweepProblem:
    name: str
    kind: str          # "near_identity" or "consensus"
    n: int
    edges: list
    target: np.ndarray
    xis: np.ndarray | None = None  # initial states to simulate, one per row

    def config(self) -> dict:
        return {"graph": graph_json(self.n, self.edges),
                "target": [[float(v) for v in row] for row in self.target]}


# (n, graph, target kind): paths and random connected graphs, both target kinds
SWEEP_POOL = ((3, "path", "near_identity"), (3, "path", "consensus"),
              (4, "random", "consensus"), (5, "random", "consensus"),
              (6, "path", "near_identity"))


def sweep_pool() -> list:
    """Problem templates. Near-identity targets exp(eps G) have G on the
    graph's pattern; consensus targets are exp(-tau L) of a denser graph."""
    rng = np.random.default_rng(SWEEP_POOL_SEED)
    pool = []
    for n, graph, kind in SWEEP_POOL:
        edges = path_edges(n) if graph == "path" else random_connected_edges(rng, n, 1)
        if kind == "near_identity":
            G = rng.standard_normal((n, n)) * pattern(n, edges)
            target = expm(SWEEP_EPS * G / np.linalg.norm(G))
        else:
            dense = random_connected_edges(rng, n, n)
            target = expm(-SWEEP_TAU * laplacian(n, dense))
        pool.append(SweepProblem(f"n{n}_{graph}_{kind}", kind, n, edges, target))
    return pool


def relabel(prob: SweepProblem, perm: np.ndarray) -> SweepProblem:
    """The same problem with node i renamed perm[i] (0-based permutation)."""
    edges = sorted(tuple(sorted((int(perm[i - 1]) + 1, int(perm[j - 1]) + 1)))
                   for i, j in prob.edges)
    P = np.eye(prob.n)[perm].T  # P e_i = e_perm[i]
    return SweepProblem(prob.name, prob.kind, prob.n, edges, P @ prob.target @ P.T)


def sweep_problems(seed: int, count: int | None = None) -> list:
    rng = np.random.default_rng(seed)
    pool = sweep_pool()[:count]
    probs = []
    for k in rng.permutation(len(pool)):
        p = relabel(pool[k], rng.permutation(pool[k].n))
        p.xis = rng.standard_normal((SWEEP_STATES, p.n))
        probs.append(p)
    return probs


# ---------------------------------------------------------------------------
# replay: large pre-generated schedules W(t) = a(t) M.
#
# M is symmetric on the graph's pattern with |M|_F = 1, and a(t) is piecewise
# linear between the grid samples, as the program interpolates it. All W(t)
# commute, so the exact final state is exp(A M) xi with A the trapezoid
# integral of a.

@dataclass
class ReplaySchedule:
    n: int
    edges: list
    grid: np.ndarray
    W_seq: np.ndarray
    xi: np.ndarray
    final: np.ndarray  # oracle x(tf)

    def energy(self) -> float:
        vals = 0.5 * np.sum(self.W_seq ** 2, axis=(1, 2))
        return float(np.sum(np.diff(self.grid) * (vals[:-1] + vals[1:]) / 2.0))


def replay_schedules(seed: int, sizes=REPLAY_SIZES, grid_points: int = REPLAY_GRID) -> list:
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, grid_points)
    out = []
    for n in sizes:
        edges = random_connected_edges(rng, n, n)  # 2n - 1 undirected edges
        P = pattern(n, edges)
        M = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * P)
        M = M + np.triu(M, 1).T
        M /= np.linalg.norm(M)
        # a whole number of periods around an offset of +-1: A = +-1 and the
        # energy of every schedule is 1.5, whatever the seed
        a = rng.choice([-1.0, 1.0]) + 2.0 * np.sin(2 * np.pi * rng.integers(1, 4) * grid
                                                  + rng.uniform(0.0, 2 * np.pi))
        W_seq = a[:, None, None] * M[None]
        A = float(np.sum(np.diff(grid) * (a[:-1] + a[1:]) / 2.0))
        lam, V = np.linalg.eigh(M)
        xi = rng.standard_normal(n)
        final = V @ (np.exp(A * lam) * (V.T @ xi))
        out.append(ReplaySchedule(n, edges, grid, W_seq, xi, final))
    return out


def write_schedule(path: Path, sched: ReplaySchedule) -> None:
    """schedule.csv in the program's documented layout (header t,w_i_j,...);
    17 significant digits read back as the same floats."""
    rows, cols = np.nonzero(pattern(sched.n, sched.edges))
    table = np.column_stack([sched.grid, sched.W_seq[:, rows, cols]])
    header = "t," + ",".join(f"w_{i + 1}_{j + 1}" for i, j in zip(rows, cols))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")
