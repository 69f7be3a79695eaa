"""Undirected information-exchange network with mandatory self-loops.

Vertices are 1-based everywhere a graph crosses an external boundary
(JSON, CSV headers, error messages). A graph is its edge pattern: which
entries of a weight matrix may be nonzero. The pattern is symmetric in
structure, while the weights on it may be asymmetric in value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Malformed input, whichever layer checks it: a graph, config, setting,
    initial state or CSV file, or an index or array shape that the Lie layer,
    the dynamics or the solver cannot use. The command line exits 1 on it."""


@dataclass(frozen=True, eq=False)
class Graph:
    """The edge pattern as a read-only n-by-n boolean array: mask[i - 1, j - 1]
    is True exactly when (i, j) is an edge. It is symmetric, and its diagonal,
    the self-loops, is always True. A weight matrix W is local when
    np.where(g.mask, W, 0.0) equals it. Graphs compare by pattern; build one
    with build_graph."""

    mask: np.ndarray

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.mask, other.mask)


def build_graph(n: int, edge_list) -> Graph:
    """Construct a graph on a whole n >= 1 from a list of 1-based (i, j) pairs
    of whole numbers in 1..n; anything else raises InputError.

    The pattern is symmetrized and every self-loop is inserted.
    Connectivity is not enforced here; query is_connected separately.
    """
    n = _vertex_count(n, "graph nodes")
    i, j = np.array(node_pairs(edge_list, "graph edges", n), dtype=int).reshape(-1, 2).T - 1
    M = np.eye(n, dtype=bool)
    M[i, j] = M[j, i] = True
    M.flags.writeable = False
    return Graph(mask=M)


def _vertex_count(n, what: str) -> int:
    """`n` as a whole number >= 1 whose n-by-n edge pattern fits in memory;
    anything else raises InputError, naming the input as `what`."""
    n = int(numeric_array(n, what, (), whole=True))
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    try:  # before any per-node work
        np.empty((n, n), dtype=bool)
    except (MemoryError, ValueError) as exc:
        raise InputError(f"vertex count {n} is too large to hold its edge pattern") from exc
    return n


def _non_numbers(value):
    """The entries of `value` that are not numbers. JSON true/false, null or
    a string would otherwise read as 1/0, NaN or the number it spells."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":  # numbers by construction
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _non_numbers(v)
    elif isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
        yield value


def numeric_array(value, what: str, shape: tuple, whole: bool = False) -> np.ndarray:
    """`value`, a number from outside the program, as a float array.

    Every entry must be a finite number (a whole one when `whole` is set),
    and the array must have `shape`, where -1 matches any length. Anything
    else raises InputError, naming the input as `what`.
    """
    for bad in _non_numbers(value):
        raise InputError(f"{what} must hold numbers, not {bad!r}")
    try:
        A = np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{what} is not a regular array of numbers: {exc}") from exc
    if A.ndim != len(shape) or any(s not in (-1, a) for s, a in zip(shape, A.shape)):
        want = f"of shape {shape}".replace("-1", "k") if shape else "a single number"
        raise InputError(f"{what} must be {want}, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{what} has non-finite entries")
    if whole and not np.all(A == np.round(A)):
        raise InputError(f"{what} must hold whole numbers")
    return A


def _square_matrix(value, what: str) -> np.ndarray:
    """`value` as a float array, which must be 2-D with equal sides; any other
    shape raises InputError, naming the function as `what`. The entries are
    not checked."""
    A = np.asarray(value, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"{what} needs a square matrix, got {A.shape}")
    return A


def node_pairs(value, what: str, n: int) -> list:
    """`value` as a list of (a, b) pairs of whole node numbers in 1..n;
    anything else raises InputError, naming the input as `what`."""
    if isinstance(value, (list, tuple)) and len(value) == 0:
        return []
    P = numeric_array(value, what, (-1, 2), whole=True)
    for a, b in P[((P < 1) | (P > n)).any(axis=1)][:1]:
        raise InputError(f"{what} ({int(a)},{int(b)}) out of range for n={n}")
    return [(a, b) for a, b in P.astype(int).tolist()]


def graph_from_json_dict(d: dict) -> Graph:
    """Load the {"nodes": n, "edges": [[i,j],...]} fragment."""
    if not isinstance(d, dict) or "nodes" not in d:
        raise InputError("a graph must be an object with a 'nodes' field")
    return build_graph(d["nodes"], d.get("edges", []))


def _components(g: Graph) -> np.ndarray:
    """Each vertex's component, labelled by its lowest 0-based vertex, by
    depth-first search over np.flatnonzero neighbours (self-loops do not connect)."""
    label = np.full(g.n, -1)
    for v in range(g.n):
        if label[v] < 0:
            label[v], stack = v, [v]
            while stack:
                new = np.flatnonzero(g.mask[stack.pop()] & (label < 0))
                label[new] = v
                stack.extend(new.tolist())
    return label


def is_connected(g: Graph) -> bool:
    """Reachability of every vertex from vertex 1 (self-loops do not connect)."""
    return not _components(g).any()


def laplacian(g: Graph) -> np.ndarray:
    """Standard graph Laplacian L = D - A, self-loops excluded."""
    A = g.mask.astype(float)
    np.fill_diagonal(A, 0.0)
    return np.diag(A.sum(axis=1)) - A


def path_graph(n: int) -> Graph:
    n = _vertex_count(n, "graph nodes")
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    n = _vertex_count(n, "graph nodes")
    if n < 3:
        raise InputError("cycle graph needs n >= 3")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def star_graph(n: int) -> Graph:
    n = _vertex_count(n, "graph nodes")
    return build_graph(n, [(1, i) for i in range(2, n + 1)])


def complete_graph(n: int) -> Graph:
    n = _vertex_count(n, "graph nodes")
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
