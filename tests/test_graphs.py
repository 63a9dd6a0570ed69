import math
import sys
import tracemalloc

import numpy as np
import pytest

from resistnet import cli
from resistnet.graphs import (
    DYADIC_TREE, HALF_LINE_GEOM, LINE_AB, LINE_GEOM_SYM, GraphStructureError,
    TruncationInfo, WeightedGraph, build_ab_line, build_dyadic_tree,
    build_half_line, build_sym_line, path_graph, read_graph, validate,
    write_graph,
)

from graph_oracles import adjacency_by_edges, graph_from_records, validate_by_edges


def test_validate_small_path_is_valid():
    g = path_graph([1.0, 1.0])
    report = validate(g)
    assert report.is_valid
    assert report.codes() == []


def test_validate_disconnected_pair_of_edges():
    g = graph_from_records(4, ((0, 1, 1.0), (2, 3, 1.0)), base_vertex=0)
    report = validate(g)
    assert not report.is_valid
    assert report.violations == (
        ("connectivity", "vertices [2, 3] unreachable from base 0"),)


def test_validate_zero_conductance():
    g = graph_from_records(2, ((0, 1, 0.0),), base_vertex=0)
    assert "positivity" in validate(g).codes()


def test_validate_self_loop_and_duplicate_pair():
    g = graph_from_records(3, ((0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)))
    codes = validate(g).codes()
    assert "self_loop" in codes
    assert "symmetry" in codes


# three and four copies of one pair in both orientations, self-loops with
# good and bad conductances, 0, -0.0, negative and NaN conductances on
# first and repeated copies, and a vertex nothing reaches
_MESSY_MULTIGRAPH = (
    (0, 1, 1.0), (1, 0, 2.5), (2, 2, 1.0), (0, 1, 0.1 + 0.2), (1, 2, 0.0),
    (2, 1, -3.0), (3, 3, -1.0), (1, 0, float("nan")), (2, 3, float("nan")),
    (3, 2, 4.0), (2, 1, 7.0), (3, 2, -0.0), (2, 3, 5e-324), (3, 3, 0.0),
    (1, 2, 1e300), (4, 4, 2.0),
)


def test_validate_matches_the_edge_loop_on_a_messy_multigraph():
    g = graph_from_records(6, _MESSY_MULTIGRAPH)
    assert validate(g).violations == validate_by_edges(g)
    assert validate(g).violations[:4] == (
        ("symmetry", "pair (0, 1) stored more than once (c=1.0, c=2.5)"),
        ("self_loop", "edge (2,2) is a self-loop"),
        ("symmetry", "pair (0, 1) stored more than once (c=1.0, c=0.30000000000000004)"),
        ("positivity", "edge (1, 2) has conductance 0.0 <= 0"),
    )


@pytest.mark.parametrize("seed", range(12))
def test_validate_matches_the_edge_loop_on_random_multigraphs(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(0, 40))
    choices = np.array([1.0, 2.0, 0.5, 0.0, -0.0, -1.0, np.nan, 1e-300])
    columns = (rng.integers(0, n, m), rng.integers(0, n, m), rng.choice(choices, m))
    for x, y, c in ((columns[0], columns[1], columns[2]),
                    (columns[0].astype(np.uint32), columns[1].astype(np.int16),
                     columns[2].astype(np.float32))):
        g = WeightedGraph(n, (x, y, c), base_vertex=int(rng.integers(0, n)))
        assert validate(g).violations == validate_by_edges(g)


def test_validate_finds_nothing_on_the_builders():
    for g in (build_dyadic_tree(1.0, 9), build_sym_line(2, 30), path_graph([])):
        assert validate(g).violations == validate_by_edges(g) == ()


def test_structural_errors_raise_not_report():
    with pytest.raises(GraphStructureError, match=r"edge \(0, 5, 1.0\) has vertex out of range"):
        WeightedGraph(2, (np.array([0]), np.array([5]), np.array([1.0])))
    with pytest.raises(GraphStructureError, match="vertex out of range"):
        graph_from_records(2, ((0, 1, 1.0), (-1, 0, 1.0)))
    with pytest.raises(GraphStructureError, match="base vertex out of range"):
        graph_from_records(2, ((0, 1, 1.0),), base_vertex=9)
    with pytest.raises(GraphStructureError, match="1-D arrays of one length"):
        WeightedGraph(2, edge_arrays=(np.array([0]), np.array([1, 0]), np.array([1.0])))
    with pytest.raises(TypeError):
        WeightedGraph(2)


@pytest.mark.parametrize("records", [
    ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),    # three records read as columns
    ((0, 1, 1), (1, 2, 1), (2, 3, 1)),          # ... with integer conductances
    ((0, 1, 1.0), (1, 2, 1.0)),
    ((0, 1, 1.0),),
])
def test_records_are_refused_where_edge_arrays_belong(records):
    with pytest.raises(GraphStructureError):
        WeightedGraph(4, records)


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


def test_tree_conductance_stays_finite():
    # the largest vertex weight is 3 * c_const below the root, 2 * c_const at N = 1
    assert 3 * 5.99e307 < sys.float_info.max < 3 * 6e307
    assert np.all(np.isfinite(build_dyadic_tree(5.99e307, 4).vertex_weights))
    with pytest.raises(ValueError, match="overflow"):
        build_dyadic_tree(6e307, 4)
    assert np.all(np.isfinite(build_dyadic_tree(7e307, 1).vertex_weights))
    with pytest.raises(ValueError, match="vertex weights overflow at c_const = 7e\\+307, N = 2"):
        build_dyadic_tree(7e307, 2)
    for c_const in (math.inf, math.nan, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="c_const must be finite and > 0"):
            build_dyadic_tree(c_const, 3)


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
    start, neighbours, _ = g.csr
    root_nbrs = {g.labels[v] for v in neighbours[start[0]:start[1]]}
    assert root_nbrs == {"0", "1"}
    # every vertex strictly between the root and the leaves has 3 neighbors
    g = build_dyadic_tree(1.0, 4)
    start, _, _ = g.csr
    for v, w in enumerate(g.labels):
        if 1 <= len(w) <= 3:
            assert start[v + 1] - start[v] == 3


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
        by_scan[x] = sum(c for _, c in adjacency_by_edges(g)[x])
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


# A model spec is a model name of the CLI table with its parameters; the
# table hands them to the family's builder, whose checks validate them.

def _model_config(model, N, **params):
    return {"model": model, "N": N, "M": None, "A": None, "B": None, "c_const": None,
            **params}


def test_model_spec_validation():
    bad = [("half-line", 5, {"M": 0.9}), ("half-line", 1, {"M": 2.0}),
           ("sym-line", 5, {"M": None}), ("ab-line", 5, {"A": 2.0, "B": 1.0}),
           ("tree", 3, {"c_const": 0.0})]
    for model, N, params in bad:
        with pytest.raises(ValueError):
            cli._MODELS[model](_model_config(model, N, **params))
        # the CLI reports the builder's ValueError as a usage error
        with pytest.raises(cli.UsageError):
            cli._model_graph(_model_config(model, N, **params))
    with pytest.raises(ValueError):
        build_half_line(0.9, 5)
    with pytest.raises(ValueError):
        build_half_line(2.0, 1)
    with pytest.raises(ValueError):
        build_ab_line(2.0, 1.0, 5)
    assert build_dyadic_tree(1.0, 3).n_vertices == 15


@pytest.mark.parametrize("family,params,direct", [
    (HALF_LINE_GEOM, {"M": 3.0}, lambda: build_half_line(3.0, 6)),
    (LINE_GEOM_SYM, {"M": 3.0}, lambda: build_sym_line(3.0, 6)),
    (LINE_AB, {"A": 2.0, "B": 3.0}, lambda: build_ab_line(2.0, 3.0, 6)),
    (DYADIC_TREE, {"c_const": 0.5}, lambda: build_dyadic_tree(0.5, 6)),
])
def test_model_spec_builds_the_family_graph(family, params, direct):
    model = {HALF_LINE_GEOM: "half-line", LINE_GEOM_SYM: "sym-line", LINE_AB: "ab-line",
             DYADIC_TREE: "tree"}[family]
    graph = cli._model_graph(_model_config(model, 6, **params))
    assert graph == direct()
    # equal model graphs hash equal; TruncationInfo leaves its params dict out of its hash
    assert hash(graph) == hash(direct())
    assert len({graph, direct()}) == 1
    assert graph.truncation.family == family
    assert graph.truncation.depth == 6
    assert params.items() <= graph.truncation.params.items()


def test_model_spec_rejects_custom(capsys):
    with pytest.raises(cli.UsageError, match="unknown model 'custom'"):
        cli._model_graph(_model_config("custom", 5))
    # resolvent with neither --model nor --graph names no model
    assert cli.main(["resolvent", "--x", "0"]) == 64
    assert capsys.readouterr().err == "resistnet: error: unknown model None\n"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["walk", "--model", "custom", "--start", "0"])
    assert exit_info.value.code == 64


def test_index_of_is_the_identity_on_the_tree():
    g = build_dyadic_tree(1.0, 3)
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


def _path(ex, ey, ec, **kwargs):
    return WeightedGraph(3, (np.array(ex), np.array(ey), np.array(ec)), **kwargs)


def test_equality_compares_the_edge_columns_as_values():
    g = _path([0, 1], [1, 2], [1.0, 0.0])
    assert g == _path(np.array([0, 1], np.int32), np.array([1, 2], np.int32), [1.0, -0.0])
    assert hash(g) == hash(_path(np.array([0, 1], np.int32), [1, 2], [1.0, -0.0]))
    assert g != _path([0, 1], [1, 2], [1.0, 0.5])
    assert g != _path([0, 2], [1, 1], [1.0, 0.0])
    assert g != _path([0, 1], [1, 2], [1.0, 0.0], base_vertex=1)
    assert g != _path([0, 1], [1, 2], [1.0, 0.0], labels=("a", "b", "c"))
    assert g != _path([0], [1], [1.0])
    assert g != WeightedGraph(4, (np.array([0, 1]), np.array([1, 2]), np.array([1.0, 0.0])))
    with_nan = _path([0, 1], [1, 2], [1.0, math.nan])
    assert with_nan != _path([0, 1], [1, 2], [1.0, math.nan])
    assert with_nan == with_nan
    assert build_sym_line(2, 5) == build_sym_line(2.0, 5)
    assert build_sym_line(2, 5) != build_ab_line(2, 2, 5)    # the families differ
    assert build_dyadic_tree(1.0, 3) != build_dyadic_tree(0.5, 3)


def test_equality_and_hash_build_no_edge_records():
    a, b = build_dyadic_tree(1.0, 12), build_dyadic_tree(1.0, 12)
    assert a == b and hash(a) == hash(b)
    assert "edges" not in a.__dict__ and "edges" not in b.__dict__
    c = read_graph(write_graph(a))
    assert c != a     # a file records no truncation
    assert c == read_graph(write_graph(a)) and hash(c) == hash(read_graph(write_graph(a)))
    assert "edges" not in c.__dict__


def test_equality_of_trees_builds_no_label_tuples():
    a, b = build_dyadic_tree(1.0, 16), build_dyadic_tree(1.0, 16)
    assert a == b and hash(a) == hash(b)
    assert "labels" not in a.__dict__ and "labels" not in b.__dict__
    assert a != build_dyadic_tree(1.0, 15)
    # labels held as tuples are still compared label by label
    labels = ("", "left", "right")
    c = read_graph(write_graph(_path([0, 1], [1, 2], [1.0, 2.0], labels=labels)))
    assert c == read_graph(write_graph(_path([0, 1], [1, 2], [1.0, 2.0], labels=labels)))
    assert c == _path([0, 1], [1, 2], [1.0, 2.0], labels=labels)
    assert c != _path([0, 1], [1, 2], [1.0, 2.0], labels=("", "left", "Right"))
    assert c != _path([0, 1], [1, 2], [1.0, 2.0])


def test_read_graph_rejects_garbage():
    with pytest.raises(GraphStructureError):
        read_graph("edge 0 1 1.0\n")
    with pytest.raises(GraphStructureError):
        read_graph("graph 2 1 0\nwible 0 1\n")


def test_multi_word_labels_round_trip():
    g = graph_from_records(3, ((0, 1, 1.0), (1, 2, 0.5)),
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
    reference = _dyadic_tree_by_words(0.3, n)
    assert (g.n_vertices, g.edges, g.labels, tuple(g.truncation.frontier)) == reference
    assert g.base_vertex == 0
    # the label function writes the text the reference's label tuple writes
    words = WeightedGraph(g.n_vertices, g.edge_arrays, labels=reference[2],
                          truncation=g.truncation)
    assert write_graph(g) == write_graph(words)


def test_dyadic_tree_builds_no_object_per_vertex():
    # a str label and a frontier int per vertex would take about 16 MB here
    tracemalloc.start()
    try:
        build_dyadic_tree(1.0, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def _line_records(right, left, N):
    """The per-edge loop the two-sided builder replaced: right edge, then left edge."""
    edges = []
    for n in range(1, N + 1):
        edges.append((n - 1 + N, n + N, float(right) ** n))
        edges.append((-n + N, -n + 1 + N, float(left) ** n))
    return tuple(edges)


@pytest.mark.parametrize("graph,records", [
    (build_half_line(3, 9), tuple((n - 1, n, 3.0 ** n) for n in range(1, 10))),
    (build_half_line(1.5, 6, scale=0.3),
     tuple((n - 1, n, 0.3 * 1.5 ** n) for n in range(1, 7))),
    (build_sym_line(1.1, 12), _line_records(1.1, 1.1, 12)),
    (build_ab_line(2, 3.5, 8), _line_records(2, 3.5, 8)),
    (path_graph([1, 0.25, 7.5]), ((0, 1, 1.0), (1, 2, 0.25), (2, 3, 7.5))),
    (path_graph([]), ()),
], ids=["half-line", "half-line-scaled", "sym-line", "ab-line", "path", "path-no-edges"])
def test_line_builders_match_the_record_loop_reference(graph, records):
    assert graph.edges == records
    assert [type(v) for e in graph.edges for v in e] == [int, int, float] * len(records)
    assert [column.dtype for column in graph.edge_arrays] == [np.int64, np.int64, np.float64]


def _cycle_graph(base_vertex=0):
    """A cycle 0-1-2-3-0 with a chord, a pendant 4 off 2, a self-loop and a
    repeated pair; vertices 5, 6 and 7 form a component 0..4 cannot reach.
    The frontier is 3, 1 and 4, so no frontier vertex reaches 5, 6 or 7."""
    records = ((0, 1, 1.0), (2, 1, 0.5), (2, 3, 2.0), (3, 0, 1.5), (0, 2, 3.0),
               (4, 2, 0.25), (4, 4, 9.0), (1, 0, 4.0), (5, 6, 1.0), (7, 6, 1.0))
    return graph_from_records(8, records, base_vertex=base_vertex,
                              truncation=TruncationInfo("CUSTOM", 0, frontier=(3, 1, 4)))


@pytest.mark.parametrize("graph", [
    _cycle_graph(),
    build_dyadic_tree(0.5, 4),
    build_sym_line(2, 6),
    read_graph("graph 3 0 0\n"),
], ids=["cycle-multigraph", "tree", "sym-line", "no-edges"])
def test_csr_holds_the_edge_by_edge_adjacency(graph):
    start, neighbours, conductances = graph.csr
    adjacency = adjacency_by_edges(graph)
    assert (start.dtype, neighbours.dtype, conductances.dtype) == (np.int64, np.int64, np.float64)
    assert start.tolist() == np.cumsum([0] + [len(a) for a in adjacency]).tolist()
    assert len(neighbours) == len(conductances) == start[-1]
    for x, adj in enumerate(adjacency):
        assert list(zip(neighbours[start[x]:start[x + 1]].tolist(),
                        conductances[start[x]:start[x + 1]].tolist())) == adj


def _hops_by_relaxation(graph, sources):
    """Hop distances by relaxing every edge until nothing changes (None if unreachable)."""
    d = [None] * graph.n_vertices
    for v in sources:
        d[v] = 0
    changed = True
    while changed:
        changed = False
        for x, y, _ in graph.edges:
            for a, b in ((x, y), (y, x)):
                if d[a] is not None and (d[b] is None or d[b] > d[a] + 1):
                    d[b] = d[a] + 1
                    changed = True
    return d


@pytest.mark.parametrize("base", range(8))
def test_depths_and_frontier_distance_match_the_relaxation_reference(base):
    g = _cycle_graph(base)
    depths = _hops_by_relaxation(g, [base])
    assert g.depths.tolist() == [-1 if d is None else d for d in depths]
    frontier = _hops_by_relaxation(g, [3, 1, 4])
    assert g.frontier_distance.tolist() == [8 if d is None else d for d in frontier]
    assert g.frontier_distance.tolist()[5:] == [8, 8, 8]
    assert g.interior_mask.tolist() == [v not in (1, 3, 4) for v in range(8)]
    assert validate(g).codes() == ["connectivity", "self_loop", "symmetry"]


def test_conductance_reads_the_first_edge_of_a_pair():
    g = _cycle_graph()
    assert g.conductance(0, 1) == 1.0 and g.conductance(1, 0) == 1.0
    assert g.conductance(2, 4) == 0.25
    assert g.conductance(4, 4) == 9.0
    assert g.conductance(0, 5) == 0.0
