"""Undirected information-exchange network with mandatory self-loops.

Vertices are 1-based everywhere a graph crosses an external boundary
(JSON, CSV headers, error messages). Edges are stored as ordered pairs so
that the sparsity pattern of a weight matrix can be asymmetric in value
while symmetric in structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Malformed input, whichever layer checks it: a graph, config, setting,
    initial state or CSV file, or an index or array shape that the Lie layer,
    the dynamics or the solver cannot use. The command line exits 1 on it."""


@dataclass(frozen=True)
class Graph:
    """Vertex/edge structure; edges include both orientations and all self-loops."""

    n: int
    edges: frozenset


def build_graph(n: int, edge_list) -> Graph:
    """Construct a graph on a whole n >= 1 from a list of 1-based (i, j) pairs
    of whole numbers in 1..n; anything else raises InputError.

    The edge set is symmetrized and every self-loop is inserted.
    Connectivity is not enforced here; query is_connected separately.
    """
    n = _vertex_count(n, "graph nodes")
    edges = set(node_pairs(edge_list, "graph edges", n))
    edges |= {(j, i) for (i, j) in edges}
    edges |= {(i, i) for i in range(1, n + 1)}
    return Graph(n=n, edges=frozenset(edges))


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


def _components(g: Graph) -> list:
    """The vertex sets of the connected components, by depth-first search
    from each vertex not yet reached (self-loops do not connect)."""
    rows = mask(g).tolist()
    comps = []
    for v in range(1, g.n + 1):
        if not any(v in comp for comp in comps):
            comp, stack = {v}, [v]
            while stack:
                for j, edge in enumerate(rows[stack.pop() - 1], start=1):
                    if edge and j not in comp:
                        comp.add(j)
                        stack.append(j)
            comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    """Reachability of every vertex from vertex 1 (self-loops do not connect)."""
    return len(_components(g)) == 1


def laplacian(g: Graph) -> np.ndarray:
    """Standard graph Laplacian L = D - A, self-loops excluded."""
    A = mask(g).astype(float)
    np.fill_diagonal(A, 0.0)
    return np.diag(A.sum(axis=1)) - A


def mask(g: Graph) -> np.ndarray:
    """The edge pattern as an n-by-n boolean array: entry [i - 1, j - 1] is
    True exactly when (i, j) is an edge, so the diagonal is always True.
    A weight matrix W is local when np.where(mask(g), W, 0.0) equals it."""
    M = np.zeros((g.n, g.n), dtype=bool)
    for (i, j) in g.edges:
        M[i - 1, j - 1] = True
    return M


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
