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
