"""Graph construction, masks, Laplacians, and canonical topologies."""

import numpy as np
import pytest

import netxform as nx
from netxform.graph import GraphError, adjacency, build_graph, mask, numeric_array


def test_build_graph_symmetrizes_and_adds_self_loops():
    g = build_graph(2, [(1, 2)])
    assert g.edges == frozenset({(1, 1), (2, 2), (1, 2), (2, 1)})


def test_build_graph_single_node():
    g = build_graph(1, [])
    assert g.edges == frozenset({(1, 1)})


def test_build_graph_rejects_out_of_range_index():
    with pytest.raises(GraphError):
        build_graph(3, [(1, 4)])
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_build_graph_strict_mode_rejects_missing_pieces():
    with pytest.raises(GraphError):
        build_graph(2, [(1, 2)], strict=True)  # missing reciprocal and loops
    ok = build_graph(2, [(1, 1), (2, 2), (1, 2), (2, 1)], strict=True)
    assert ok.has_edge(2, 1)


def test_graph_json_round_trip():
    g = build_graph(3, [(1, 2), (2, 3)])
    again = nx.graph_from_json_dict(g.to_json_dict())
    assert again == g
    with pytest.raises(GraphError):
        nx.graph_from_json_dict({"edges": []})


@pytest.mark.parametrize("value, shape, whole", [
    ([[1, 2], [3, 4]], (-1, 2), True),
    (np.arange(4).reshape(2, 2), (2, -1), True),
    ((np.int64(1), 2.5), (2,), False),
    (np.float64(3.0), (), True),
    (7, (), True),
    ([], (-1,), False),
])
def test_numeric_array_accepts(value, shape, whole):
    A = numeric_array(value, "x", shape, whole=whole)
    assert A.dtype == float and np.array_equal(A, np.array(value, dtype=float))


class _Marked(ValueError):
    pass


@pytest.mark.parametrize("value, shape, whole, words", [
    ([1, True], (2,), False, "numbers"),
    (np.array([True, False]), (2,), False, "numbers"),
    ([1, None], (2,), False, "numbers"),
    ("1", (), False, "numbers"),
    ([2.0], (), False, "a single number, got shape"),
    ([[1, 2], [3]], (-1, 2), False, "regular"),
    (10 ** 400, (), False, "regular"),
    ([1, 2, 3], (-1, 2), False, r"of shape \(k, 2\), got shape \(3,\)"),
    ([[1, 2]], (2, 2), False, r"of shape \(2, 2\)"),
    (1.0, (1,), False, r"of shape \(1,\), got shape \(\)"),
    ([[1.0, 2.0]], (1, 1), False, r"of shape \(1, 1\), got shape \(1, 2\)"),
    ([1.0, float("nan")], (2,), False, "non-finite"),
    ([float("inf")], (-1,), True, "non-finite"),
    ([1.0, 2.5], (2,), True, "whole"),
], ids=["bool", "bool-array", "null", "string", "not-scalar", "ragged", "huge-int",
        "any-rows", "rows", "scalar", "one-by-one", "nan", "inf", "fraction"])
def test_numeric_array_rejects(value, shape, whole, words):
    with pytest.raises(_Marked, match=f"^the input .*{words}"):
        numeric_array(value, "the input", shape, whole=whole, error=_Marked)


def test_is_connected():
    assert nx.is_connected(nx.path_graph(3))
    assert nx.is_connected(nx.complete_graph(5))
    assert not nx.is_connected(build_graph(3, []))
    assert not nx.is_connected(build_graph(4, [(1, 2), (3, 4)]))


def test_laplacian_single_edge():
    g = build_graph(2, [(1, 2)])
    assert np.array_equal(nx.laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_self_loops_only_is_zero():
    assert not nx.laplacian(build_graph(3, [])).any()


def test_laplacian_complete_k3():
    L = nx.laplacian(nx.complete_graph(3))
    assert np.array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_rows_sum_to_zero_and_symmetric():
    for g in (nx.path_graph(5), nx.cycle_graph(6), nx.star_graph(4),
              nx.complete_graph(4)):
        L = nx.laplacian(g)
        assert np.array_equal(L, L.T)
        assert not (L @ np.ones(g.n)).any()
        assert np.all(np.linalg.eigvalsh(L) > -1e-12)


def test_mask_pattern_of_four_node_example():
    # two hubs: node 1 talks to 2 and 3, node 3 talks to 4
    g = build_graph(4, [(1, 2), (1, 3), (3, 4)])
    m = nx.mask(g).entries
    for (i, j) in [(1, 4), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2)]:
        assert not m[i - 1, j - 1]
    assert m.diagonal().all()
    assert np.array_equal(m, m.T)


def test_mask_trivial_patterns():
    assert nx.mask(build_graph(1, [])).entries.tolist() == [[True]]
    assert nx.mask(nx.complete_graph(2)).entries.all()


def test_mask_conforms_and_apply():
    m = nx.mask(nx.path_graph(3))
    W = np.full((3, 3), 2.0)
    applied = m.apply(W)
    assert m.conforms(applied)
    assert not m.conforms(W)
    assert applied[0, 2] == 0.0 and applied[0, 1] == 2.0


def test_mask_index_pairs_row_major():
    pairs = nx.mask(nx.path_graph(3)).index_pairs()
    assert pairs == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


def test_canonical_graph_edge_counts():
    assert nx.path_graph(2).loop_edge_count() == 2
    assert nx.path_graph(2).nonloop_edge_count() == 1
    assert nx.complete_graph(4).nonloop_edge_count() == 6
    assert nx.cycle_graph(3).nonloop_edge_count() == 3
    assert nx.star_graph(5).nonloop_edge_count() == 4


def test_canonical_graph_argument_validation():
    with pytest.raises(GraphError):
        nx.cycle_graph(2)
    with pytest.raises(GraphError):
        nx.path_graph(0)


def test_adjacency_excludes_self_loops():
    A = adjacency(nx.path_graph(3))
    assert not A.diagonal().any()
    assert A[0, 1] == 1.0 and A[0, 2] == 0.0


def test_mask_symmetric_diagonal_true_property():
    for g in (nx.path_graph(4), nx.cycle_graph(5), nx.star_graph(3),
              build_graph(3, [(1, 3)])):
        m = nx.mask(g).entries
        assert np.array_equal(m, m.T)
        assert m.diagonal().all()
