import math
import tracemalloc

import numpy as np
import pytest

from resistnet.boundary import build_deficiency_zplus, build_harmonic_zline
from resistnet.energy import apply_laplacian, constant, vector
from resistnet.graphs import (
    build_ab_line, build_dyadic_tree, build_half_line, build_sym_line, path_graph, read_graph,
)
from resistnet.walk import (
    WalkStats, _check_kernel, apply_transfer, counter_uniforms, frequency_check,
    integer_cuts, kernel_from_graph, simulate, transfer_iterate,
)

from graph_oracles import adjacency_by_edges, graph_from_records


def test_kernel_half_line_probabilities():
    k = kernel_from_graph(build_half_line(2, 20))
    assert k.probability(0, 1) == 1.0
    for n in range(1, 19):
        assert abs(k.probability(n, n + 1) - 2.0 / 3.0) < 1e-15
        assert abs(k.probability(n, n - 1) - 1.0 / 3.0) < 1e-15
    # frontier vertex renormalizes over its single remaining edge
    assert k.probability(20, 19) == 1.0


def test_kernel_rejects_negative_conductances():
    # WeightedGraph takes such edges (read_graph refuses them); a walk would
    # get probabilities 2.0 and -1.0 in row 1 of this path
    with pytest.raises(ValueError, match=r"edge \(1, 2\) has conductance -0.5;"):
        kernel_from_graph(path_graph([1.0, -0.5, 2.0]))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has conductance nan;"):
        kernel_from_graph(path_graph([float("nan"), 1.0]))
    g = graph_from_records(3, [(0, 1, 1.0), (2, 1, -2.5)])
    with pytest.raises(ValueError, match=r"edge \(2, 1\) has conductance -2.5;"):
        kernel_from_graph(g)


def test_kernel_ab_line_probabilities():
    g = build_ab_line(2, 3, 6)
    k = kernel_from_graph(g)
    z = g.index_of(0)
    assert abs(k.probability(z, g.index_of(1)) - 2.0 / 5.0) < 1e-15
    assert abs(k.probability(z, g.index_of(-1)) - 3.0 / 5.0) < 1e-15
    n2 = g.index_of(2)
    assert abs(k.probability(n2, g.index_of(3)) - 2.0 / 3.0) < 1e-15
    m2 = g.index_of(-2)
    assert abs(k.probability(m2, g.index_of(-3)) - 3.0 / 4.0) < 1e-15
    assert abs(k.probability(m2, g.index_of(-1)) - 1.0 / 4.0) < 1e-15


@pytest.mark.parametrize("graph_factory", [
    lambda: build_half_line(2, 15),
    lambda: build_sym_line(3, 8),
    lambda: build_ab_line(2, 3, 8),
    lambda: build_dyadic_tree(0.5, 4),
])
def test_kernel_rows_stochastic_and_reversible(graph_factory):
    g = graph_factory()
    k = kernel_from_graph(g)
    sums = k.probs.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    w = g.vertex_weights
    for x, y, _c in g.edges:
        assert abs(w[x] * k.probability(x, y) - w[y] * k.probability(y, x)) \
            < 1e-12 * max(w[x], w[y], 1.0)


def test_reversibility_check_reads_the_sampled_probabilities():
    g = build_half_line(2, 10)
    k = kernel_from_graph(g)
    _check_kernel(g, k.neighbors, k.probs)
    # swapping p(1, 0) and p(1, 2) keeps row 1 stochastic but breaks
    # c(1) p(1, 2) = c(2) p(2, 1)
    tampered = k.probs.copy()
    tampered[1, [0, 1]] = tampered[1, [1, 0]]
    with pytest.raises(ValueError, match="detailed balance"):
        _check_kernel(g, k.neighbors, tampered)


def test_counter_uniforms_are_stateless_and_uniform():
    a = counter_uniforms(7, np.arange(1000), 0)
    b = counter_uniforms(7, np.arange(1000), 0)
    assert np.array_equal(a, b)
    # a single index probes the same value regardless of batch shape
    assert counter_uniforms(7, 123, 0) == a[123]
    c = counter_uniforms(8, np.arange(1000), 0)
    assert not np.array_equal(a, c)
    big = counter_uniforms(7, np.arange(200000), 3)
    assert 0.0 <= big.min() and big.max() < 1.0
    assert abs(big.mean() - 0.5) < 0.005


def test_simulate_is_deterministic():
    k = kernel_from_graph(build_half_line(2, 20))
    s1 = simulate(k, 5, 3, 2000, seed=42)
    s2 = simulate(k, 5, 3, 2000, seed=42)
    assert s1.to_dict() == s2.to_dict()
    s3 = simulate(k, 5, 3, 2000, seed=43)
    assert s1.to_dict() != s3.to_dict()


def test_simulate_counts_add_up():
    k = kernel_from_graph(build_sym_line(2, 10))
    stats = simulate(k, k.graph.base_vertex, 4, 500, seed=1)
    assert stats.total_transitions == 4 * 500
    assert int(stats.visit_counts.sum()) == 4 * 500


def test_simulate_forced_move():
    g = path_graph([2.7])
    k = kernel_from_graph(g)
    stats = simulate(k, 0, 1, 1000, seed=9)
    assert stats.edge_counts == {(0, 1): 1000}


def _simulate_dense(kernel, start, steps, trials, seed):
    """The V x V count-matrix loop simulate replaced, as the exact reference."""
    n = kernel.graph.n_vertices
    cumprobs = np.cumsum(kernel.probs, axis=1)
    cumprobs[kernel.neighbors < 0] = np.inf
    degrees = np.sum(kernel.neighbors >= 0, axis=1)
    positions = np.full(trials, start, dtype=int)
    trial_idx = np.arange(trials, dtype=np.uint64)
    counts = np.zeros((n, n), dtype=np.int64)
    visits = np.zeros(n, dtype=np.int64)
    for step in range(steps):
        u = counter_uniforms(seed, trial_idx, step)
        choice = np.sum(u[:, None] >= cumprobs[positions], axis=1)
        choice = np.minimum(choice, degrees[positions] - 1)
        nxt = kernel.neighbors[positions, choice]
        np.add.at(counts, (positions, nxt), 1)
        np.add.at(visits, nxt, 1)
        positions = nxt
    edge_counts = {(int(x), int(y)): int(counts[x, y]) for x, y in zip(*np.nonzero(counts))}
    return edge_counts, visits


def _star(leaves):
    text = f"graph {leaves + 1} {leaves} 0\n" + "".join(
        f"edge 0 {i} {1.0 + 0.25 * i}\n" for i in range(1, leaves + 1))
    return read_graph(text)


def _random_multigraph(n=60, extra=150, seed=23):
    """A connected multigraph with parallel edges, conductances 1e-8..1e8."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(extra)]
    pairs += pairs[::7]                      # exact repeats: parallel edges
    conds = 10.0 ** rng.uniform(-8, 8, len(pairs))
    edges = tuple((x, y, float(c)) for (x, y), c in zip(pairs, conds))
    return graph_from_records(n, edges)


def _weights_by_edges(graph):
    """The per-edge loop vertex_weights replaced, as the exact reference."""
    w = np.zeros(graph.n_vertices)
    for x, y, c in graph.edges:
        w[x] += c
        w[y] += c
    return w


def _kernel_by_rows(graph):
    """The per-vertex sorted-row loop kernel_from_graph replaced, as the exact reference."""
    weights = _weights_by_edges(graph)
    adjacency = adjacency_by_edges(graph)
    maxdeg = max(len(a) for a in adjacency)
    nbrs = np.full((graph.n_vertices, maxdeg), -1, dtype=int)
    probs = np.zeros((graph.n_vertices, maxdeg))
    for x, adj in enumerate(adjacency):
        for j, (y, c) in enumerate(sorted(adj)):
            nbrs[x, j] = y
            probs[x, j] = c / weights[x]
    return nbrs, probs


@pytest.mark.parametrize("graph_factory", [
    *[lambda n=n: build_dyadic_tree(0.7, n) for n in range(1, 11)],
    lambda: build_half_line(3, 40),
    lambda: build_sym_line(1.7, 25),
    lambda: build_ab_line(2, 5, 20),
    lambda: _star(40),
    _random_multigraph,
], ids=[f"tree-N{n}" for n in range(1, 11)]
    + ["half-line", "sym-line", "ab-line", "star", "multigraph"])
def test_kernel_and_weights_match_the_loop_references(graph_factory):
    g = graph_factory()
    weights = _weights_by_edges(g)
    assert g.vertex_weights.tobytes() == weights.tobytes()
    k = kernel_from_graph(g)
    nbrs, probs = _kernel_by_rows(g)
    assert k.neighbors.dtype == nbrs.dtype
    assert np.array_equal(k.neighbors, nbrs)
    assert k.probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("graph_factory,start", [
    (lambda: build_dyadic_tree(1.0, 4), 0),
    (lambda: build_half_line(2, 20), 5),
    (lambda: build_sym_line(3, 8), 8),
    (lambda: build_ab_line(2, 3, 8), 8),
    (lambda: _star(40), 0),
    (lambda: path_graph([2.7]), 1),
], ids=["tree-N4", "half-line", "sym-line", "ab-line", "star", "two-vertex"])
def test_simulate_matches_the_dense_reference(graph_factory, start):
    k = kernel_from_graph(graph_factory())
    # 40,000 and 2**14 + 1 trials cross the boundaries of 2**14-trial blocks
    for steps, trials, seed in [(1, 5000, 3), (7, 3000, 11), (3, 40000, 5),
                                (2, 2 ** 14 + 1, 13)]:
        stats = simulate(k, start, steps, trials, seed)
        edge_counts, visits = _simulate_dense(k, start, steps, trials, seed)
        assert stats.edge_counts == edge_counts
        assert list(stats.edge_counts) == list(edge_counts)
        assert stats.visit_counts.dtype == visits.dtype
        assert np.array_equal(stats.visit_counts, visits)


@pytest.mark.parametrize("cut", [0.0, -0.0, 0.5, 1 / 3, np.nextafter(1.0, 0.0), 1.0,
                                 1 + 2.0 ** -52, np.inf])
def test_integer_cut_picks_as_the_float_cut(cut):
    [icut] = integer_cuts(np.array([cut])).tolist()
    zs = {0, 2 ** 53 - 1}
    if np.isfinite(cut):
        scaled = cut * 2.0 ** 53
        zs |= {int(np.floor(scaled)) - 1, int(np.floor(scaled)), int(np.floor(scaled)) + 1,
               int(np.ceil(scaled))}
    for z in sorted(v for v in zs if 0 <= v < 2 ** 53):
        assert (z >= icut) == (z / 2.0 ** 53 >= cut), z


def _frequency_rows_by_loop(stats, kernel, min_exits):
    """The per-edge loop frequency_check replaced, as the exact reference."""
    exits = {}
    for (x, _y), n in stats.edge_counts.items():
        exits[x] = exits.get(x, 0) + n
    rows = []
    for x, n_exits in sorted(exits.items()):
        if n_exits < min_exits:
            continue
        for y, p in kernel.row(x):
            emp = stats.edge_counts.get((x, y), 0) / n_exits
            var = p * (1.0 - p) / n_exits
            z = abs(emp - p) / math.sqrt(var) if var else 0.0 if emp == p else float("inf")
            rows.append((x, y, p, emp, n_exits, z))
    return tuple(rows)


def _assert_same_rows(got, want):
    assert repr(got) == repr(want)
    assert all(type(a) is type(b) for g, w in zip(got, want) for a, b in zip(g, w))


@pytest.mark.parametrize("graph_factory,start", [
    (lambda: build_dyadic_tree(1.0, 6), 0),
    (lambda: build_ab_line(2, 3, 8), 8),
    (lambda: _star(40), 0),
    (_random_multigraph, 0),
], ids=["tree-N6", "ab-line", "star", "multigraph"])
def test_frequency_check_matches_the_row_loop(graph_factory, start):
    k = kernel_from_graph(graph_factory())
    stats = simulate(k, start, 6, 20000, seed=4)
    for min_exits in (0, 1, 1000):
        _assert_same_rows(frequency_check(stats, k, min_exits=min_exits).rows,
                          _frequency_rows_by_loop(stats, k, min_exits))
    assert stats.total_transitions == 6 * 20000
    assert list(stats.to_dict()["edge_counts"]) == [f"{x}->{y}" for x, y in stats.edge_counts]


def test_frequency_check_scores_deterministic_rows():
    # on the path 0 - 1 - 2 - 3 with a zero conductance on (1, 2), row 1
    # moves to 0 with p = 1 and to 2 with p = 0; the hand-made tallies break
    # both, so each scores infinity, while row 0 (p = 1, matched) scores 0
    k = kernel_from_graph(path_graph([1.0, 0.0, 1.0]))
    tallies = (np.array([0, 1, 1]), np.array([1, 0, 2]), np.array([5, 9, 1]))
    stats = WalkStats(0, 0, 1, 15, tallies, np.array([9, 5, 1, 0]))
    check = frequency_check(stats, k, min_exits=1)
    _assert_same_rows(check.rows, _frequency_rows_by_loop(stats, k, 1))
    assert [row[5] for row in check.rows] == [0.0, math.inf, math.inf]
    assert not check.all_within_band


def test_simulate_memory_is_not_quadratic():
    # 8,191 vertices: a V x V int64 count matrix alone would take 537 MB
    k = kernel_from_graph(build_dyadic_tree(1.0, 12))
    tracemalloc.start()
    try:
        simulate(k, 0, 2, 1000, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_single_step_frequencies_within_band():
    k = kernel_from_graph(build_half_line(2, 30))
    stats = simulate(k, 5, 1, 200000, seed=7)
    check = frequency_check(stats, k)
    assert check.all_within_band
    emp = stats.edge_counts[(5, 6)] / 200000
    sigma = np.sqrt((2 / 3) * (1 / 3) / 200000)
    assert abs(emp - 2 / 3) <= 4 * sigma


def test_multi_step_frequencies_within_band():
    k = kernel_from_graph(build_sym_line(2, 12))
    stats = simulate(k, k.graph.base_vertex, 40, 20000, seed=11)
    check = frequency_check(stats, k, min_exits=1000)
    assert len(check.rows) > 4
    assert check.all_within_band


def test_transfer_fixes_constants():
    g = build_dyadic_tree(1.0, 4)
    k = kernel_from_graph(g)
    f = constant(g, 2.5)
    assert np.max(np.abs(apply_transfer(k, f).values - 2.5)) < 1e-14


def test_transfer_interior_formula_half_line():
    g = build_half_line(2, 20)
    k = kernel_from_graph(g)
    rng = np.random.default_rng(17)
    f = vector(g, rng.standard_normal(g.n_vertices))
    tf = apply_transfer(k, f).values
    for x in range(1, 20):
        expected = f.values[x - 1] / 3.0 + 2.0 * f.values[x + 1] / 3.0
        assert abs(tf[x] - expected) < 1e-12


@pytest.mark.parametrize("graph_factory", [
    lambda: build_half_line(2, 20),
    lambda: build_sym_line(2, 12),
    lambda: build_ab_line(2, 3, 10),
    lambda: build_dyadic_tree(1.0, 5),
])
def test_transfer_laplacian_identity(graph_factory):
    # T f = f - Lap f / c, at every vertex of the truncation
    g = graph_factory()
    k = kernel_from_graph(g)
    rng = np.random.default_rng(18)
    for _ in range(50):
        f = vector(g, rng.standard_normal(g.n_vertices))
        tf = apply_transfer(k, f).values
        expected = f.values - apply_laplacian(f).values / g.vertex_weights
        assert np.max(np.abs(tf - expected)) < 1e-12


def test_transfer_iterate_fixes_harmonic_vector():
    # T h = h away from the frontier, so the sup change is the last
    # increment of h and the loop exits immediately; the harmonicity
    # residual of the iterate is reported, not asserted, because the
    # reflecting frontier rows shift the two end values
    harm = build_harmonic_zline(2, 1.0, 40)
    k = kernel_from_graph(harm.vector.graph)
    tf = apply_transfer(k, harm.vector).values
    interior = harm.vector.graph.interior_mask
    assert np.max(np.abs((tf - harm.vector.values)[interior])) <= 1e-12
    res = transfer_iterate(k, harm.vector, k_max=50, tol=1e-12)
    assert res.converged
    assert res.iterations == 1
    assert res.last_delta <= 1e-12


def test_transfer_iterate_deficiency_monotone():
    sol = build_deficiency_zplus(2, 40)
    k = kernel_from_graph(sol.vector.graph)
    # eigen-relation at interior vertices: T u = (1 + 1/c) u
    tu = apply_transfer(k, sol.vector).values
    u = sol.vector.values
    expected = (1.0 + 1.0 / sol.vector.graph.vertex_weights) * u
    interior = sol.vector.graph.interior_mask
    rel = np.max(np.abs((tu - expected)[interior]) / np.abs(u[interior]))
    assert rel < 1e-9
    res = transfer_iterate(k, sol.vector, k_max=200, tol=1e-10)
    assert res.monotone_interior
    assert res.min_interior_increment >= -1e-9 * float(np.max(np.abs(u)))


def test_transfer_iterate_reports_exhaustion():
    g = build_sym_line(2, 10)
    k = kernel_from_graph(g)
    rng = np.random.default_rng(19)
    f = vector(g, rng.standard_normal(g.n_vertices))
    res = transfer_iterate(k, f, k_max=3, tol=1e-15)
    assert not res.converged
    assert res.iterations == 3
    assert res.last_delta > 0
