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
from netxform.graph import InputError
from netxform.lie_algebra import index_matrix

from conftest import (SWAP_TARGET, consensus_map, exact_determinant,
                      single_node_average_map)


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
    for (i, j) in np.argwhere(g.mask) + 1:
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
    with pytest.raises(InputError):
        nx.IndexField(3, 0, 2)


def test_bracket_follows_the_index_rule():
    # [g_ij, g_kl] = delta_li E_kj - delta_jk E_il, the rule computed here
    for n in range(1, 5):
        idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for i, j in idx:
            for k, l in idx:
                want = np.zeros((n, n))
                want[k - 1, j - 1] += l == i
                want[i - 1, l - 1] -= j == k
                got = nx.bracket(nx.IndexField(n, i, j), nx.IndexField(n, k, l))
                assert np.array_equal(got.coeffs, want), (n, i, j, k, l)


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


def _random_graph_with_components(rng, n, k):
    """A random graph on n vertices with exactly k components."""
    label = rng.permutation(np.arange(n) % k)
    edges = []
    for c in range(k):
        comp = [int(v) + 1 for v in rng.permutation(np.flatnonzero(label == c))]
        edges += [(comp[int(rng.integers(m))], comp[m]) for m in range(1, len(comp))]
        edges += [(a, b) for a in comp for b in comp if a < b and rng.random() < 0.3]
    return nx.build_graph(n, edges)


def test_closure_is_block_diagonal_over_random_components():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        for k in range(1, n + 1):
            for _ in range(2):
                g = _random_graph_with_components(rng, n, k)
                assert nx.generated_algebra_dimension(g) == brute_force_closure_dimension(g)


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
    # malformed input, as from the command line, not an infeasible verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as info:
            nx.check_feasible(nx.path_graph(3), target)
    assert str(info.value) == "target has non-finite entries"


@pytest.mark.parametrize("entry", ["1", "a", True, None])
@pytest.mark.parametrize("gate", [nx.check_feasible, lambda g, T: nx.BvpProblem(graph=g, target=T)],
                         ids=["check_feasible", "BvpProblem"])
def test_feasibility_target_must_hold_numbers(gate, entry):
    # neither "1" nor True reads as 1, and None is no nan: each is malformed input
    with pytest.raises(InputError, match="^target must hold numbers"):
        gate(nx.path_graph(2), [[1, 0], [0, entry]])


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


def _nearly_singular(seed, count, sizes):
    # rank n - 1 products plus noise of 1e-15, a few units in the last place
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = sizes[k % len(sizes)]
        A = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        yield A + 1e-15 * rng.standard_normal((n, n))


def test_feasibility_sign_is_exact_on_nearly_singular_targets():
    exactly_singular = np.array([[12.0, 6.0, -18.0], [33.0, 84.0, -72.0], [9.0, 27.0, -21.0]])
    targets = [*_nearly_singular(0, 3000, (3, 4, 5, 6)),
               *_nearly_singular(1, 12, tuple(range(7, 13))), exactly_singular]
    graphs = {n: nx.path_graph(n) for n in range(3, 13)}
    for T in targets:
        rep = nx.check_feasible(graphs[T.shape[0]], T)
        det = exact_determinant(T)
        sign = (det > 0) - (det < 0)
        assert rep.sign == sign and rep.feasible is (sign > 0), T.tolist()
        # a float elimination gets about 2.5% of these signs wrong, and the
        # exactly singular one too; the report shows det T correctly rounded
        assert rep.determinant == rep.to_json_dict()["det"] == float(det), T.tolist()
    rep = nx.check_feasible(graphs[3], exactly_singular)
    assert rep.determinant == 0.0 and rep.reason == "determinant is zero"


def test_feasibility_report_json_fields():
    d = nx.check_feasible(nx.path_graph(2), np.eye(2)).to_json_dict()
    assert set(d) == {"det", "connected", "feasible", "reason"}
    assert d["feasible"] is True

