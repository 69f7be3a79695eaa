"""Graph construction, masks, Laplacians, and canonical topologies."""

import numpy as np
import pytest

import netxform as nx
from netxform.graph import InputError, build_graph, numeric_array
from netxform.lie_algebra import index_matrix


def test_build_graph_symmetrizes_and_adds_self_loops():
    g = build_graph(2, [(1, 2)])
    assert g.mask.tolist() == [[True, True], [True, True]]
    assert g.n == 2


def test_build_graph_single_node():
    g = build_graph(1, [])
    assert g.mask.tolist() == [[True]]
    assert g.n == 1


def test_build_graph_rejects_out_of_range_index():
    with pytest.raises(InputError):
        build_graph(3, [(1, 4)])
    with pytest.raises(InputError):
        build_graph(0, [])


def test_build_graph_takes_whole_values_of_any_numeric_type():
    assert build_graph(3.0, [(1, 2)]) == build_graph(3, [(1, 2)])
    assert build_graph(np.int64(3), np.array([[1.0, 2.0]])) == build_graph(3, [(1, 2)])
    assert type(build_graph(np.float64(3.0), []).n) is int


def test_graph_json_round_trip():
    g = build_graph(3, [(1, 2), (2, 3)])
    again = nx.graph_from_json_dict({"nodes": 3, "edges": [[1, 2], [2, 3]]})
    assert again == g
    with pytest.raises(InputError):
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
    with pytest.raises(InputError, match=f"^the input .*{words}"):
        numeric_array(value, "the input", shape, whole=whole)


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
    m = g.mask
    for (i, j) in [(1, 4), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2)]:
        assert not m[i - 1, j - 1]
    assert m.diagonal().all()
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("edges", [
    [(3, 4), (1, 3), (1, 2)],                  # reversed
    [(2, 1), (3, 1), (4, 3)],                  # each pair flipped
    [(1, 2), (2, 1), (1, 3), (1, 3), (3, 4)],  # repeated
    np.array([[1, 2], [1, 3], [3, 4]]),        # a numpy array
], ids=["reversed", "flipped", "repeated", "array"])
def test_build_graph_pattern_ignores_edge_order_orientation_and_repeats(edges):
    want = build_graph(4, [(1, 2), (1, 3), (3, 4)])
    g = build_graph(4, edges)
    assert g == want
    assert np.array_equal(g.mask, want.mask)
    assert g != build_graph(4, [(1, 2), (1, 3)])


def test_graph_mask_is_read_only():
    g = nx.path_graph(3)
    with pytest.raises(ValueError):
        g.mask[0, 2] = True
    with pytest.raises(ValueError):
        g.mask.fill(False)
    assert g == nx.path_graph(3)


def test_mask_trivial_patterns():
    assert build_graph(1, []).mask.tolist() == [[True]]
    assert nx.complete_graph(2).mask.all()


def test_mask_apply():
    m = nx.path_graph(3).mask
    W = np.full((3, 3), 2.0)
    applied = np.where(m, W, 0.0)
    assert applied[0, 2] == 0.0 and applied[0, 1] == 2.0


def test_mask_index_pairs_row_major():
    pairs = np.argwhere(nx.path_graph(3).mask) + 1
    assert pairs.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2], [3, 3]]


def test_canonical_graph_edge_counts():
    # every self-loop, and each undirected edge in both orientations
    assert nx.path_graph(2).mask.sum() == 2 + 2 * 1
    assert nx.complete_graph(4).mask.sum() == 4 + 2 * 6
    assert nx.cycle_graph(3).mask.sum() == 3 + 2 * 3
    assert nx.star_graph(5).mask.sum() == 5 + 2 * 4


def test_canonical_graph_argument_validation():
    with pytest.raises(InputError):
        nx.cycle_graph(2)
    with pytest.raises(InputError):
        nx.path_graph(0)


@pytest.mark.parametrize("make", [nx.path_graph, nx.star_graph, nx.complete_graph])
@pytest.mark.parametrize("n", [0, -1])
def test_canonical_graphs_take_build_graphs_vertex_check(make, n):
    with pytest.raises(InputError, match=f"^vertex count must be >= 1, got {n}$"):
        make(n)


def test_vertex_counts_take_whole_values_of_any_numeric_type():
    assert nx.path_graph(3.0) == nx.path_graph(3)
    assert nx.complete_graph(np.int64(4)) == nx.complete_graph(4)
    assert np.array_equal(index_matrix(3.0, 1, 2), index_matrix(3, 1, 2))
    assert np.array_equal(nx.IndexField(3.0, 1, 2).element().coeffs, index_matrix(3, 1, 2))


@pytest.mark.parametrize("make, n, text", [
    (nx.cycle_graph, "4", "graph nodes must hold numbers, not '4'"),
    (nx.star_graph, True, "graph nodes must hold numbers, not True"),
    (nx.complete_graph, 2.5, "graph nodes must hold whole numbers"),
    (nx.path_graph, float("nan"), "graph nodes has non-finite entries"),
], ids=["cycle-str", "star-bool", "complete-2.5", "path-nan"])
def test_canonical_graphs_reject_malformed_vertex_counts(make, n, text):
    with pytest.raises(InputError) as info:
        make(n)
    assert str(info.value) == text


def test_mask_symmetric_diagonal_true_property():
    for g in (nx.path_graph(4), nx.cycle_graph(5), nx.star_graph(3),
              build_graph(3, [(1, 3)])):
        m = g.mask
        assert np.array_equal(m, m.T)
        assert m.diagonal().all()



# ---------------------------------------------------------------------------
# malformed input to the Python API, whichever layer checks it


def _schedule(grid=(0.0, 1.0), W_seq=np.zeros((2, 2, 2)), g=nx.path_graph(2)):
    return nx.WeightSchedule(grid=np.array(grid), W_seq=W_seq, mask=g.mask)


PATH2 = nx.BvpProblem(graph=nx.path_graph(2), target=np.eye(2))


@pytest.mark.parametrize("call, text", [
    (lambda: index_matrix(3, 0, 1), "index (0,1) out of range for n=3"),
    (lambda: nx.IndexField(3, 1, 4), "index (1,4) out of range for n=3"),
    (lambda: nx.bracket_general(nx.AlgebraElement(np.eye(2)), nx.AlgebraElement(np.eye(3))),
     "bracket_general: dimension mismatch"),
    (lambda: nx.bracket(nx.IndexField(2, 1, 2), nx.IndexField(3, 1, 2)),
     "bracket_general: dimension mismatch"),
    (lambda: build_graph(3, [(1.5, 2)]), "graph edges must hold whole numbers"),
    (lambda: build_graph(3, [(1, 2.9)]), "graph edges must hold whole numbers"),
    (lambda: build_graph(3, [(1, 2, 3)]), "graph edges must be of shape (k, 2), got shape (1, 3)"),
    (lambda: build_graph(3, [(True, 2)]), "graph edges must hold numbers, not True"),
    (lambda: build_graph(2.5, []), "graph nodes must hold whole numbers"),
    (lambda: build_graph(True, []), "graph nodes must hold numbers, not True"),
    (lambda: nx.check_feasible(nx.path_graph(3), np.eye(2)),
     "target must be of shape (3, 3), got shape (2, 2)"),
    (lambda: nx.determinant(np.ones((2, 3))), "determinant needs a square matrix, got (2, 3)"),
    (lambda: nx.solve_linear(np.eye(2), np.ones(3)), "solve_linear: dimension mismatch"),
    (lambda: nx.solve_linear(np.eye(2), np.float64(1.0)), "solve_linear: dimension mismatch"),
    (lambda: nx.solve_linear(np.eye(2), np.ones((2, 1, 1))), "solve_linear: dimension mismatch"),
    (lambda: _schedule(W_seq=np.zeros((3, 2, 2))),
     "schedule shape (3, 2, 2) does not match grid size 2 and n=2"),
    (lambda: _schedule(grid=(1.0, 0.0)),
     "schedule grid must be increasing, with a repeated time only as a join between "
     "pieces of >= 2 points"),
    (lambda: _schedule(W_seq=np.ones((2, 2, 2)), g=build_graph(2, [])),
     "schedule violates sparsity pattern (max off-pattern entry 1.0)"),
    (lambda: nx.propagate_state(_schedule(), np.ones(2), 0), "steps must be >= 1"),
    (lambda: nx.propagate_state(_schedule(), np.ones(2), 2.5), "steps must hold whole numbers"),
    (lambda: nx.propagate_state(_schedule(), np.ones(2), "3"), "steps must hold numbers, not '3'"),
    (lambda: nx.integrate_transition(_schedule(), 2.5), "steps must hold whole numbers"),
    (lambda: nx.propagate_state(_schedule(), np.ones(3), 10),
     "initial state has shape (3,), expected (2,) or (2, 2)"),
    (lambda: nx.weights_from_costate(np.eye(2), np.eye(3), nx.path_graph(3).mask),
     "weights_from_costate: dimension mismatch"),
    (lambda: nx.shoot(PATH2, np.zeros((3, 3))),
     "lambda0 must be of shape (2, 2), got shape (3, 3)"),
    (lambda: nx.solve_bvp(PATH2, initial_guess=np.zeros((3, 3))),
     "initial_guess must be of shape (2, 2), got shape (3, 3)"),
    (lambda: build_graph(3, [(1, 4)]), "graph edges (1,4) out of range for n=3"),
    # numpy refuses the 10^20-byte edge pattern before it allocates anything
    (lambda: build_graph(10**10, []),
     "vertex count 10000000000 is too large to hold its edge pattern"),
    (lambda: index_matrix(3, 1.5, 1), "index must hold whole numbers"),
    (lambda: index_matrix(2.5, 1, 1), "vertex count must hold whole numbers"),
    (lambda: nx.IndexField("3", 1, 1), "vertex count must hold numbers, not '3'"),
    (lambda: nx.shoot(PATH2, np.full((2, 2), np.nan)), "lambda0 has non-finite entries"),
    (lambda: nx.solve_bvp(PATH2, initial_guess=[[0.0, np.inf], [0.0, 0.0]]),
     "initial_guess has non-finite entries"),
], ids=["index_matrix", "IndexField", "bracket_general", "bracket",
        "build_graph-edge-1.5", "build_graph-edge-2.9", "build_graph-edge-triple",
        "build_graph-edge-bool", "build_graph-n-2.5", "build_graph-n-bool", "check_feasible",
        "determinant", "solve_linear", "solve_linear-b-0-d", "solve_linear-b-3-d",
        "schedule-shape", "schedule-grid", "schedule-sparsity",
        "rk4-steps", "propagate_state-steps-2.5", "propagate_state-steps-str",
        "integrate_transition-steps-2.5", "propagate_state-start", "weights_from_costate", "shoot-lambda0",
        "solve_bvp-initial_guess", "build_graph-edge-4", "build_graph-n-too-large",
        "index_matrix-1.5", "index_matrix-n-2.5", "IndexField-n-str", "shoot-lambda0-nan",
        "solve_bvp-initial_guess-inf"])
def test_malformed_input_raises_input_error(call, text):
    # one class for every layer, with each check's own message; bracket's is
    # bracket_general's, since bracket is bracket_general of the index matrices
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == text


MATRIX_FUNCTIONS = {
    "determinant": nx.determinant,
    "solve_linear": lambda A: nx.solve_linear(A, np.ones(2)),
    "expm": nx.expm,
    "homotopy_singularity_scan": nx.homotopy_singularity_scan,
    "bracket_general": lambda A: nx.bracket_general(nx.AlgebraElement(A), nx.AlgebraElement(A)),
}


@pytest.mark.parametrize("arg", [np.float64(2.0), np.ones(3), np.ones((2, 3))],
                         ids=["0-d", "1-D", "2x3"])
@pytest.mark.parametrize("name", MATRIX_FUNCTIONS)
def test_matrix_functions_reject_non_square_arguments(name, arg):
    # one shape check for all five, before any entry is read
    with pytest.raises(InputError) as info:
        MATRIX_FUNCTIONS[name](arg)
    assert str(info.value) == f"{name} needs a square matrix, got {np.shape(arg)}"
