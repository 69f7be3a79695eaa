"""Undirected information-exchange network with mandatory self-loops.

Vertices are 1-based everywhere a graph crosses an external boundary
(JSON, CSV headers, error messages). Edges are stored as ordered pairs so
that the sparsity pattern of a weight matrix can be asymmetric in value
while symmetric in structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or query."""


@dataclass(frozen=True)
class Graph:
    """Vertex/edge structure; edges include both orientations and all self-loops."""

    n: int
    edges: frozenset

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def neighbors(self, i: int) -> list:
        return sorted(j for (a, j) in self.edges if a == i and j != i)

    def loop_edge_count(self) -> int:
        """Number of self-loops (always n for a valid graph)."""
        return sum(1 for (i, j) in self.edges if i == j)

    def nonloop_edge_count(self) -> int:
        """Number of undirected non-loop edges (each counted once)."""
        return sum(1 for (i, j) in self.edges if i < j)

    def to_json_dict(self) -> dict:
        nonloop = sorted((i, j) for (i, j) in self.edges if i < j)
        return {"nodes": self.n, "edges": [[i, j] for (i, j) in nonloop]}


@dataclass(frozen=True)
class SparsityMask:
    """Boolean n-by-n pattern: True exactly on the edges of the graph."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def conforms(self, W: np.ndarray) -> bool:
        """True iff W is zero everywhere the pattern is False."""
        W = np.asarray(W)
        if W.shape != self.entries.shape:
            return False
        return bool(np.all(W[~self.entries] == 0.0))

    def apply(self, W: np.ndarray) -> np.ndarray:
        """Zero out all off-pattern entries of W, or of each matrix of a stack."""
        out = np.array(W, dtype=float)
        out[..., ~self.entries] = 0.0
        return out

    def index_pairs(self) -> list:
        """Mask-true (i, j) pairs, 1-based, row-major order."""
        return [(i + 1, j + 1) for i in range(self.n) for j in range(self.n)
                if self.entries[i, j]]


def build_graph(n: int, edge_list, strict: bool = False) -> Graph:
    """Construct a graph from a list of 1-based (i, j) pairs.

    Non-strict mode symmetrizes the edge set and inserts self-loops.
    Strict mode raises if any reciprocal edge or self-loop is missing.
    Connectivity is not enforced here; query is_connected separately.
    """
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    edges = set()
    for pair in edge_list:
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i},{j}) out of range for n={n}")
        edges.add((i, j))
    if strict:
        for (i, j) in edges:
            if (j, i) not in edges:
                raise GraphError(f"strict mode: edge ({i},{j}) missing reciprocal ({j},{i})")
        for i in range(1, n + 1):
            if (i, i) not in edges:
                raise GraphError(f"strict mode: missing self-loop ({i},{i})")
    else:
        edges |= {(j, i) for (i, j) in edges}
        edges |= {(i, i) for i in range(1, n + 1)}
    return Graph(n=n, edges=frozenset(edges))


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def numeric_array(value) -> np.ndarray:
    """`value` as a float array; a true/false anywhere in it raises TypeError
    instead of reading as 1/0."""
    if _holds_bool(value):
        raise TypeError("true/false is not a number")
    return np.array(value, dtype=float)


def node_pairs(value, what: str, error=GraphError) -> list:
    """`value` as a list of (a, b) pairs of whole node numbers; anything
    else raises `error`, naming the input as `what`."""
    try:
        P = numeric_array(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} are not numeric: {exc}") from exc
    if P.size == 0:
        return []
    if P.ndim != 2 or P.shape[1] != 2 or not np.all(np.isfinite(P) & (P == np.round(P))):
        raise error(f"{what} must be a list of [a, b] node numbers, got {value!r}")
    return [(int(a), int(b)) for a, b in P]


def graph_from_json_dict(d: dict) -> Graph:
    """Load the {"nodes": n, "edges": [[i,j],...], "strict": false} fragment."""
    try:
        n = float(d["nodes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph fragment: {exc}") from exc
    if isinstance(d["nodes"], bool) or not n.is_integer():
        raise GraphError(f"graph nodes must be a whole number, got {d['nodes']!r}")
    strict = d.get("strict", False)
    if not isinstance(strict, bool):
        raise GraphError(f"graph field 'strict' must be true or false, got {strict!r}")
    return build_graph(int(n), node_pairs(d.get("edges", []), "graph edges"), strict=strict)


def is_connected(g: Graph) -> bool:
    """Reachability of every vertex from vertex 1 (self-loops do not connect)."""
    seen = {1}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in g.neighbors(i):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == g.n


def adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix without self-loops."""
    A = np.zeros((g.n, g.n))
    for (i, j) in g.edges:
        if i != j:
            A[i - 1, j - 1] = 1.0
    return A


def laplacian(g: Graph) -> np.ndarray:
    """Standard graph Laplacian L = D - A, self-loops excluded."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def mask(g: Graph) -> SparsityMask:
    """Boolean sparsity pattern of the edge set (diagonal always True)."""
    M = np.zeros((g.n, g.n), dtype=bool)
    for (i, j) in g.edges:
        M[i - 1, j - 1] = True
    return SparsityMask(entries=M)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path graph needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle graph needs n >= 3")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def star_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("star graph needs n >= 1")
    return build_graph(n, [(1, i) for i in range(2, n + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
