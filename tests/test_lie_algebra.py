"""Bracket algebra, closure dimensions, and the feasibility gate.

The closure oracle here is deliberately independent of the library: it works
in exact rational arithmetic over the coefficient matrices, so dimension
comparisons carry no floating-point doubt.
"""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import netxform as nx
from netxform.graph import mask
from netxform.lie_algebra import (LieAlgebraError, closure_contains,
                                  index_matrix, matrix_rank)

from conftest import SWAP_TARGET, consensus_map, single_node_average_map


# ---------------------------------------------------------------------------
# oracles


class _ExactSpan:
    """Row space over the rationals, kept in reduced echelon form."""

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot column -> row (list of Fractions)

    def add(self, vec) -> bool:
        v = [Fraction(int(x)) if float(x).is_integer() else Fraction(x) for x in vec]
        for piv, row in self.rows.items():
            if v[piv]:
                f = v[piv]
                v = [a - f * b for a, b in zip(v, row)]
        for piv, val in enumerate(v):
            if val:
                v = [a / val for a in v]
                self.rows[piv] = v
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def brute_force_closure_dimension(g) -> int:
    """Commutator closure of the edge index matrices by exhaustive sweeps."""
    n = g.n
    basis = []
    span = _ExactSpan(n * n)
    for (i, j) in mask(g).index_pairs():
        M = np.zeros((n, n), dtype=int)
        M[i - 1, j - 1] = 1
        if span.add(M.ravel()):
            basis.append(M)
    while True:
        added = []
        for a in basis:
            for b in basis:
                C = b @ a - a @ b
                if C.any() and span.add(C.ravel()):
                    added.append(C)
        if not added or span.dim >= n * n:
            basis.extend(added)
            break
        basis.extend(added)
    return span.dim


def finite_difference_bracket(n, a, b, X, eps=1e-6):
    """Central-difference Lie bracket of the matrix fields E_a X and E_b X."""
    A = index_matrix(n, *a)
    B = index_matrix(n, *b)

    def f(M):
        return A @ M

    def h(M):
        return B @ M

    dg_f = (h(X + eps * f(X)) - h(X - eps * f(X))) / (2 * eps)
    df_g = (f(X + eps * h(X)) - f(X - eps * h(X))) / (2 * eps)
    return dg_f - df_g


# ---------------------------------------------------------------------------
# bracket


def _coeffs(n, pairs):
    C = np.zeros((n, n))
    for (i, j), v in pairs.items():
        C[i - 1, j - 1] = v
    return C


def test_bracket_chain_overlap():
    out = nx.bracket(nx.IndexField(3, 1, 2), nx.IndexField(3, 2, 3))
    assert np.array_equal(out.coeffs, _coeffs(3, {(1, 3): -1.0}))


def test_bracket_reverse_overlap():
    out = nx.bracket(nx.IndexField(3, 1, 3), nx.IndexField(3, 2, 1))
    assert np.array_equal(out.coeffs, _coeffs(3, {(2, 3): 1.0}))


def test_bracket_disjoint_indices_vanishes():
    out = nx.bracket(nx.IndexField(4, 1, 2), nx.IndexField(4, 3, 4))
    assert not out.coeffs.any()


def test_bracket_transpose_pair_hits_both_terms():
    out = nx.bracket(nx.IndexField(2, 1, 2), nx.IndexField(2, 2, 1))
    assert np.array_equal(out.coeffs, _coeffs(2, {(2, 2): 1.0, (1, 1): -1.0}))


def test_bracket_out_of_range_index():
    with pytest.raises(LieAlgebraError):
        nx.IndexField(3, 0, 2)


def test_bracket_general_matches_index_bracket():
    a = nx.IndexField(3, 1, 2)
    b = nx.IndexField(3, 2, 3)
    general = nx.bracket_general(a.element(), b.element())
    assert np.array_equal(general.coeffs, nx.bracket(a, b).coeffs)
    assert np.array_equal(general.coeffs, -index_matrix(3, 1, 3))


def test_bracket_general_self_and_zero():
    rng = np.random.default_rng(0)
    a = nx.AlgebraElement(coeffs=rng.normal(size=(3, 3)))
    zero = nx.AlgebraElement(coeffs=np.zeros((3, 3)))
    assert not nx.bracket_general(a, a).coeffs.any()
    assert not nx.bracket_general(zero, a).coeffs.any()


def test_bracket_general_jacobi_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, c = (nx.AlgebraElement(coeffs=rng.normal(size=(4, 4))) for _ in range(3))
        total = (nx.bracket_general(a, nx.bracket_general(b, c)).coeffs
                 + nx.bracket_general(b, nx.bracket_general(c, a)).coeffs
                 + nx.bracket_general(c, nx.bracket_general(a, b)).coeffs)
        assert np.abs(total).max() < 1e-12


def test_bracket_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        X = rng.normal(size=(n, n)) + n * np.eye(n)
        a = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        b = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        sym = nx.bracket(nx.IndexField(n, *a), nx.IndexField(n, *b)).coeffs @ X
        fd = finite_difference_bracket(n, a, b, X)
        assert np.abs(sym - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-5


# ---------------------------------------------------------------------------
# closure


def test_closure_dimension_path3():
    assert nx.generated_algebra_dimension(nx.path_graph(3)) == 9


def test_closure_dimension_self_loops_only():
    g = nx.build_graph(3, [])
    assert nx.generated_algebra_dimension(g) == 3


def test_closure_dimension_disconnected_blocks():
    g = nx.build_graph(3, [(1, 2)])
    assert nx.generated_algebra_dimension(g) == 5


def test_closure_dimension_matches_exact_oracle():
    for g in (nx.path_graph(4), nx.cycle_graph(5), nx.star_graph(4),
              nx.complete_graph(3), nx.build_graph(4, [(1, 2), (3, 4)])):
        assert nx.generated_algebra_dimension(g) == brute_force_closure_dimension(g)


def test_closure_contains_every_unit_element_when_connected():
    for g in (nx.path_graph(4), nx.cycle_graph(4)):
        for i in range(1, 5):
            for j in range(1, 5):
                assert closure_contains(g, index_matrix(4, i, j)) < 1e-9


# ---------------------------------------------------------------------------
# feasibility and controllability


def test_feasibility_consensus_map_rejected():
    rep = nx.check_feasible(nx.path_graph(3), consensus_map(3))
    assert not rep.feasible
    assert rep.determinant == 0.0
    assert "zero" in rep.reason


def test_feasibility_single_node_average_accepted():
    rep = nx.check_feasible(nx.path_graph(3), single_node_average_map(3))
    assert rep.feasible
    assert rep.determinant == 1.0 / 3.0


def test_feasibility_swap_accepted_transposition_rejected():
    assert nx.check_feasible(nx.cycle_graph(4), SWAP_TARGET).feasible
    flip = np.eye(2)
    flip[[0, 1]] = flip[[1, 0]]
    rep = nx.check_feasible(nx.complete_graph(2), flip)
    assert not rep.feasible and rep.determinant < 0.0


def test_feasibility_negative_diagonal_rejected():
    rep = nx.check_feasible(nx.complete_graph(2), np.diag([1.0, -1.0]))
    assert not rep.feasible


def test_feasibility_disconnected_rejected():
    g = nx.build_graph(3, [(1, 2)])
    rep = nx.check_feasible(g, np.eye(3))
    assert not rep.feasible and "connected" in rep.reason


@pytest.mark.parametrize("target", [
    np.diag([np.inf, 1.0, 1.0]),
    np.diag([np.nan, 1.0, 1.0]),
    np.full((3, 3), np.inf),
    np.full((3, 3), -np.inf),
])
def test_feasibility_non_finite_target_rejected(target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = nx.check_feasible(nx.path_graph(3), target)
    assert not rep.feasible and rep.connected
    assert rep.reason == "target has non-finite entries"


@pytest.mark.parametrize("target, sign", [
    (np.diag([1e200, 1e200]), 1),
    (np.diag([1e-200, 1e-200]), 1),
    (np.diag([-1e-200, 1e-200]), -1),
    (np.array([[0.0, 1e-200], [1e-200, 0.0]]), -1),  # one row swap
    (np.array([[0.0, -1e200], [1e200, 0.0]]), 1),
])
def test_feasibility_follows_the_pivot_signs(target, sign):
    # det overflows to inf or underflows to 0.0; the decision must not
    rep = nx.check_feasible(nx.complete_graph(2), target)
    assert rep.sign == sign and rep.feasible is (sign > 0)
    assert json.loads(json.dumps(rep.to_json_dict()),
                      parse_constant=lambda name: pytest.fail(f"{name} in the report"))


def test_feasibility_report_json_fields():
    d = nx.check_feasible(nx.path_graph(2), np.eye(2)).to_json_dict()
    assert set(d) == {"det", "connected", "feasible", "reason"}
    assert d["feasible"] is True


def test_controllable_at_identity_and_singular():
    g = nx.path_graph(3)
    assert nx.controllable_at(g, np.eye(3))
    singular = np.eye(3)
    singular[2, 2] = 0.0
    assert not nx.controllable_at(g, singular)
    assert not nx.controllable_at(nx.build_graph(3, [(1, 2)]), np.eye(3))


def test_matrix_rank_thresholding():
    A = np.diag([1.0, 1e-14, 0.0])
    assert matrix_rank(A) == 1
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(4)) == 4
