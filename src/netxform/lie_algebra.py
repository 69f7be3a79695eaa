"""Feasibility gate and constructive controllability of the edge vector fields.

Each edge (i, j) contributes the field g_ij(X) = E_ij X, where E_ij is the
matrix with a single one at row i, column j. The Lie algebra generated by
these fields decides whether the network can steer the transition matrix
anywhere in the positive-determinant group: for a connected graph the
closure spans all of R^(n x n), and every state a schedule reaches has
det X > 0, so connectivity and the sign of det T decide the problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _exact_det
from .graph import (Graph, InputError, _components, _square_matrix, _vertex_count, is_connected,
                    node_pairs, numeric_array)


def index_matrix(n: int, i: int, j: int) -> np.ndarray:
    """E_ij: one at (i, j), zeros elsewhere. 1-based indices."""
    n = _vertex_count(n, "vertex count")
    [(i, j)] = node_pairs([(i, j)], "index", n)
    M = np.zeros((n, n))
    M[i - 1, j - 1] = 1.0
    return M


@dataclass(frozen=True)
class IndexField:
    """Symbolic handle for the edge vector field g_ij(X) = E_ij X."""

    n: int
    i: int
    j: int

    def __post_init__(self):
        node_pairs([(self.i, self.j)], "index", _vertex_count(self.n, "vertex count"))

    def element(self) -> "AlgebraElement":
        return AlgebraElement(coeffs=index_matrix(self.n, self.i, self.j))


@dataclass(frozen=True)
class AlgebraElement:
    """Coefficient matrix C representing the field X -> C X."""

    coeffs: np.ndarray


def _shown_det(det: float, sign: int) -> float | None:
    """det, or None where it left the float range: overflowed, or underflowed to zero."""
    return det if math.isfinite(det) and (det > 0) - (det < 0) == sign else None


@dataclass(frozen=True)
class FeasibilityReport:
    """The gate's verdict on the finite matrix T: `sign` is the exact sign of det T
    (-1, 0 or 1), `determinant` det T correctly rounded (_exact_det), never nan."""

    determinant: float
    sign: int
    connected: bool
    reason: str

    @property
    def feasible(self) -> bool:
        return self.sign > 0 and self.connected

    def to_json_dict(self) -> dict:
        """The report as JSON values; a determinant outside the float range is null."""
        return {"det": _shown_det(self.determinant, self.sign), "connected": self.connected,
                "feasible": self.feasible, "reason": self.reason}


def bracket(a: IndexField, b: IndexField) -> AlgebraElement:
    """Lie bracket of two edge fields: bracket_general of their index matrices.

    For g_ij and g_kl the bracket field is (E_kl E_ij - E_ij E_kl) X, which
    contributes +g_kj when l = i and -g_il when j = k (both terms survive when
    both conditions hold, e.g. [g_12, g_21] = g_22 - g_11).
    """
    return bracket_general(a.element(), b.element())


def bracket_general(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bracket of two fields A X and B X: the field (B A - A B) X."""
    A, B = (_square_matrix(e.coeffs, "bracket_general") for e in (a, b))
    if A.shape != B.shape:
        raise InputError("bracket_general: dimension mismatch")
    return AlgebraElement(coeffs=B @ A - A @ B)


def generated_algebra_dimension(g: Graph) -> int:
    """Dimension of the smallest matrix space containing the edge index
    matrices and closed under commutators: exactly the matrices that are
    block-diagonal over the components of the graph. Within a component,
    E_ij E_jk - E_jk E_ij = E_ik (i != k) along paths reaches every
    off-diagonal unit, and the self-loops, which build_graph always inserts,
    give the diagonal. Units in different components commute."""
    return int((np.bincount(_components(g)) ** 2).sum())


def check_feasible(g: Graph, T) -> FeasibilityReport:
    """Existence gate for the boundary value problem: det(T) > 0 and connectivity.
    T must hold n by n finite numbers (numeric_array), or InputError names the target."""
    T = numeric_array(T, "target", (g.n, g.n))
    connected = is_connected(g)
    sign, det = _exact_det(T)
    if sign > 0 and connected:
        reason = "target has positive determinant and the graph is connected"
    elif sign == 0:
        reason = "determinant is zero"
    elif sign < 0:
        shown = _shown_det(det, sign)
        reason = "determinant is negative" + ("" if shown is None else f" ({shown})")
    else:
        reason = "graph is not connected"
    return FeasibilityReport(determinant=det, sign=sign, connected=connected,
                             reason=reason)
