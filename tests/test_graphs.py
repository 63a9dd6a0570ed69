import numpy as np
import pytest

from resistnet.graphs import (
    DYADIC_TREE, HALF_LINE_GEOM, LINE_AB, LINE_GEOM_SYM, GraphStructureError,
    ModelSpec, WeightedGraph, build_ab_line, build_dyadic_tree,
    build_half_line, build_sym_line, path_graph, read_graph, validate,
    write_graph,
)


def test_validate_small_path_is_valid():
    g = path_graph([1.0, 1.0])
    report = validate(g)
    assert report.is_valid
    assert report.codes() == []


def test_validate_disconnected_pair_of_edges():
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)), base_vertex=0)
    report = validate(g)
    assert not report.is_valid
    assert report.violations == (
        ("connectivity", "vertices [2, 3] unreachable from base 0"),)


def test_validate_zero_conductance():
    g = WeightedGraph(2, ((0, 1, 0.0),), base_vertex=0)
    assert "positivity" in validate(g).codes()


def test_validate_self_loop_and_duplicate_pair():
    g = WeightedGraph(3, ((0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)))
    codes = validate(g).codes()
    assert "self_loop" in codes
    assert "symmetry" in codes


def test_structural_errors_raise_not_report():
    with pytest.raises(GraphStructureError):
        WeightedGraph(2, ((0, 5, 1.0),))
    with pytest.raises(GraphStructureError):
        WeightedGraph(2, ((0, 1, 1.0),), base_vertex=9)
    with pytest.raises(GraphStructureError, match=r"edge \(0, 5, 1.0\) has vertex out of range"):
        WeightedGraph(2, edge_arrays=(np.array([0]), np.array([5]), np.array([1.0])))
    with pytest.raises(GraphStructureError):
        WeightedGraph(2, edge_arrays=(np.array([0]), np.array([1, 0]), np.array([1.0])))
    with pytest.raises(TypeError):
        WeightedGraph(2)


def test_half_line_conductances():
    g = build_half_line(2, 3)
    assert [e[2] for e in g.edges] == [2.0, 4.0, 8.0]
    assert g.base_vertex == 0
    assert validate(g).is_valid


def test_half_line_scale():
    g = build_half_line(2, 3, scale=0.5)
    assert [e[2] for e in g.edges] == [1.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        build_half_line(2, 3, scale=0.0)


@pytest.mark.parametrize("build,name", [
    (lambda N: build_half_line(2, N), "M"),
    (lambda N: build_sym_line(2, N), "M"),
    (lambda N: build_ab_line(1.5, 2, N), "B"),
])
def test_line_conductances_stay_finite(build, name):
    # 2**1022 + 2**1023 is the largest vertex weight below the float limit
    g = build(1023)
    assert np.all(np.isfinite(g.vertex_weights))
    with pytest.raises(ValueError, match=f"conductances {name}\\*\\*n overflow"):
        build(1024)
    with pytest.raises(ValueError, match="overflow"):
        build(3000)


def test_half_line_vertex_weight():
    g = build_half_line(2, 2)
    # c(1) = c(0,1) + c(1,2) = 2 + 4
    assert g.vertex_weights[1] == 6.0


def test_half_line_rejects_unit_ratio():
    with pytest.raises(ValueError):
        build_half_line(1.0, 3)


def test_sym_line_conductances_and_mirror_symmetry():
    g = build_sym_line(2, 2)
    assert g.conductance(g.index_of(-1), g.index_of(0)) == 2.0
    assert g.conductance(g.index_of(0), g.index_of(1)) == 2.0
    assert g.conductance(g.index_of(-2), g.index_of(-1)) == 4.0
    assert g.conductance(g.index_of(1), g.index_of(2)) == 4.0
    g = build_sym_line(3, 5)
    for x in range(5):
        assert g.conductance(g.index_of(-x - 1), g.index_of(-x)) == \
            g.conductance(g.index_of(x), g.index_of(x + 1))
    assert validate(build_sym_line(3, 4)).is_valid


def test_ab_line_conductances():
    g = build_ab_line(2, 3, 2)
    assert g.conductance(g.index_of(0), g.index_of(1)) == 2.0
    assert g.conductance(g.index_of(1), g.index_of(2)) == 4.0
    assert g.conductance(g.index_of(-1), g.index_of(0)) == 3.0
    assert g.conductance(g.index_of(-2), g.index_of(-1)) == 9.0


def test_ab_line_degenerates_to_sym_line():
    gab = build_ab_line(2, 2, 4)
    gs = build_sym_line(2, 4)
    assert sorted(gab.edges) == sorted(gs.edges)


@pytest.mark.parametrize("M,N", [(2, 300), (1.1, 60), (1.5, 7)])
def test_sym_line_is_the_ab_line_with_equal_ratios(M, N):
    gs, gab = build_sym_line(M, N), build_ab_line(M, M, N)
    for column_s, column_ab in zip(gs.edge_arrays, gab.edge_arrays):
        assert column_s.dtype == column_ab.dtype
        assert column_s.tobytes() == column_ab.tobytes()
    assert gs.edges == gab.edges
    assert gs.labels == gab.labels
    assert gs.truncation.frontier == gab.truncation.frontier
    assert gs.truncation.origin_offset == gab.truncation.origin_offset
    assert gs.base_vertex == gab.base_vertex
    assert gs.truncation.family == "LINE_GEOM_SYM"
    assert gs.truncation.params == {"M": float(M)}
    assert gab.truncation.params == {"A": float(M), "B": float(M)}


def test_dyadic_tree_counts_and_neighborhoods():
    g = build_dyadic_tree(1.0, 2)
    assert g.n_vertices == 7
    assert len(g.edges) == 6
    root_nbrs = {g.labels[v] for v in g.neighbors(0)}
    assert root_nbrs == {"0", "1"}
    # every vertex strictly between the root and the leaves has 3 neighbors
    g = build_dyadic_tree(1.0, 4)
    for v, w in enumerate(g.labels):
        if 1 <= len(w) <= 3:
            assert len(g.neighbors(v)) == 3


@pytest.mark.parametrize("n", [2, 3, 5])
def test_model_counts(n):
    assert build_half_line(2, n).n_vertices == n + 1
    assert len(build_half_line(2, n).edges) == n
    assert build_sym_line(2, n).n_vertices == 2 * n + 1
    assert len(build_sym_line(2, n).edges) == 2 * n
    assert build_dyadic_tree(1.0, n).n_vertices == 2 ** (n + 1) - 1
    assert len(build_dyadic_tree(1.0, n).edges) == 2 ** (n + 1) - 2


@pytest.mark.parametrize("factory", [
    lambda: build_half_line(2, 7),
    lambda: build_sym_line(2, 7),
    lambda: build_ab_line(2, 3, 7),
    lambda: build_dyadic_tree(0.25, 4),
    lambda: path_graph([1.0, 2.0, 3.0]),
])
def test_every_constructed_model_is_valid(factory):
    assert validate(factory()).is_valid


def test_vertex_weight_two_computations_agree():
    g = build_dyadic_tree(0.7, 4)
    by_scan = np.zeros(g.n_vertices)
    for x in range(g.n_vertices):
        by_scan[x] = sum(c for _, c in g.adjacency[x])
    assert np.array_equal(by_scan, g.vertex_weights)


@pytest.mark.parametrize("text,expected", [
    ("graph 3 0 0\n", [0.0, 0.0, 0.0]),          # bincount of no endpoints is int64
    ("graph 3 1 0\nedge 0 1 2.0\n", [2.0, 2.0, 0.0]),
])
def test_vertex_weights_are_float_with_or_without_edges(text, expected):
    weights = read_graph(text).vertex_weights
    assert weights.dtype == np.float64
    assert weights.tolist() == expected


def test_truncation_monotonicity():
    shallow = build_half_line(2, 5)
    deep = build_half_line(2, 6)
    assert set(shallow.edges) == {e for e in deep.edges if e[0] <= 4 and e[1] <= 5}


def test_interior_mask_and_frontier_distance():
    g = build_half_line(2, 5)
    assert list(g.interior_mask) == [True] * 5 + [False]
    assert list(g.frontier_distance) == [5, 4, 3, 2, 1, 0]
    p = path_graph([1.0, 1.0])
    assert p.interior_mask.all()


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("HALF_LINE_GEOM", 5, M=0.9)
    with pytest.raises(ValueError):
        ModelSpec("HALF_LINE_GEOM", 1, M=2.0)
    with pytest.raises(ValueError):
        ModelSpec("LINE_AB", 5, A=2.0, B=1.0)
    spec = ModelSpec("DYADIC_TREE", 3, c_const=1.0)
    assert spec.build().n_vertices == 15


@pytest.mark.parametrize("family,params,direct", [
    (HALF_LINE_GEOM, {"M": 3.0}, lambda: build_half_line(3.0, 6)),
    (LINE_GEOM_SYM, {"M": 3.0}, lambda: build_sym_line(3.0, 6)),
    (LINE_AB, {"A": 2.0, "B": 3.0}, lambda: build_ab_line(2.0, 3.0, 6)),
    (DYADIC_TREE, {"c_const": 0.5}, lambda: build_dyadic_tree(0.5, 6)),
])
def test_model_spec_builds_the_family_graph(family, params, direct):
    spec = ModelSpec(family, 6, **params)
    graph = spec.build()
    assert graph == direct()
    assert spec.build() is graph


def test_model_spec_rejects_custom():
    with pytest.raises(ValueError, match="unknown model family"):
        ModelSpec("CUSTOM", 5)


def test_index_of_is_the_identity_on_the_tree():
    g = ModelSpec(DYADIC_TREE, 3, c_const=1.0).build()
    assert [g.index_of(v) for v in range(g.n_vertices)] == list(range(g.n_vertices))


def test_graph_serialization_roundtrip():
    g = build_dyadic_tree(0.375, 3)
    text = write_graph(g)
    g2 = read_graph(text)
    assert g2.n_vertices == g.n_vertices
    assert g2.base_vertex == g.base_vertex
    assert sorted(g2.edges) == sorted(g.edges)
    assert g2.labels == g.labels
    # conductances survive exactly through the round-trip decimal format
    g3 = read_graph(write_graph(g2))
    assert g3.edges == g2.edges


def test_read_graph_rejects_garbage():
    with pytest.raises(GraphStructureError):
        read_graph("edge 0 1 1.0\n")
    with pytest.raises(GraphStructureError):
        read_graph("graph 2 1 0\nwible 0 1\n")


def test_multi_word_labels_round_trip():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 0.5)),
                      labels=("", "left arm", "right  arm, far end"))
    text = write_graph(g)
    assert read_graph(text).labels == g.labels
    assert write_graph(read_graph(text)) == text


@pytest.mark.parametrize("text,message", [
    ("graph 3 7 0\nedge 0 1 1.0\nedge 1 2 1.0\n", "line 1: header declares 7 edges"),
    ("graph 2 1 0\nedge 0 1 1.0\n\ngraph 3 1 0\n", "line 4: second 'graph' header"),
    ("graph 2 1 0\nedge 0 1 1.0\nlabel 9 far\n", "line 3: label for vertex 9"),
    ("graph 2 1 0\nlabel -1 neg\nedge 0 1 1.0\n", "line 2: label for vertex -1"),
    ("# comment\nlabel 0 root\ngraph 1 0 0\n", "line 2: 'label' record before"),
    ("graph 2 1 0\n\nedge 0 5 1.0\n", r"line 3: edge \(0, 5\) has a vertex outside 0\.\.1"),
    ("graph 2 1 0\nedge 0 1 nan\n", "line 2: conductance nan is not finite"),
], ids=["edge-count", "second-header", "label-past-end", "negative-label",
        "label-before-header", "edge-vertex-out-of-range", "nan-conductance"])
def test_read_graph_rejects_inconsistent_records(text, message):
    with pytest.raises(GraphStructureError, match=message):
        read_graph(text)


def _dyadic_tree_by_words(c_const, N):
    """The word-scanning builder build_dyadic_tree replaced, as the exact reference."""
    words = [""]
    for depth in range(1, N + 1):
        words.extend([w + b for w in words if len(w) == depth - 1 for b in "01"])
    index = {w: i for i, w in enumerate(words)}
    edges = tuple((index[w[:-1]], index[w], float(c_const)) for w in words if w)
    frontier = tuple(index[w] for w in words if len(w) == N)
    return len(words), edges, tuple(words), frontier


@pytest.mark.parametrize("n", range(1, 11))
def test_dyadic_tree_matches_the_word_reference(n):
    g = build_dyadic_tree(0.3, n)
    assert (g.n_vertices, g.edges, g.labels, g.truncation.frontier) \
        == _dyadic_tree_by_words(0.3, n)
    assert g.base_vertex == 0
