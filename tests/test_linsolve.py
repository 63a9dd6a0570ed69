import warnings
from fractions import Fraction

import numpy as np
import pytest

from resistnet.boundary import resolvent_delta
from resistnet.graphs import (
    build_dyadic_tree, build_half_line, build_sym_line, path_graph, read_graph,
)
from resistnet.linsolve import SolverError, solve_reduced


def exact_reduced_solve(graph, shift, rhs, pinned):
    """Reference: dense Gaussian elimination over Fractions of the reduced system."""
    keep = [v for v in range(graph.n_vertices) if v not in pinned]
    pos = {v: i for i, v in enumerate(keep)}
    m = len(keep)
    a = [[Fraction(0)] * m + [Fraction(rhs.get(v, 0))] for v in keep]
    for i in range(m):
        a[i][i] += Fraction(shift)
    for x, y, c in graph.edges:
        c = Fraction(c)
        for s, t in ((x, y), (y, x)):
            if s not in pos:
                continue
            a[pos[s]][pos[s]] += c
            if t in pos:
                a[pos[s]][pos[t]] -= c
            else:
                a[pos[s]][m] += c * Fraction(pinned[t])
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, m):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [u - f * w for u, w in zip(a[r], a[col])]
    x = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        x[r] = (a[r][m] - sum(a[r][c] * x[c] for c in range(r + 1, m))) / a[r][r]
    out = np.zeros(graph.n_vertices)
    out[keep] = [float(v) for v in x]
    for v, value in pinned.items():
        out[v] = value
    return out


def backward_residual(graph, shift, u, rhs):
    ex, ey, ec = graph.edge_arrays
    n = graph.n_vertices
    flow = ec * (u[ex] - u[ey])
    resid = shift * u + np.bincount(ex, flow, n) - np.bincount(ey, flow, n) - rhs
    scale = np.max(shift + 2 * graph.vertex_weights) * np.max(np.abs(u)) + np.max(np.abs(rhs))
    return float(np.max(np.abs(resid)) / scale)


def _tree_leaves(graph, depth):
    return {i: (1.0 if w[0] == "0" else -1.0)
            for i, w in enumerate(graph.labels) if len(w) == depth}


@pytest.mark.parametrize("graph, shift, rhs, pinned", [
    (build_half_line(2.0, 40), 0.0, {17: 1.0}, {0: 0.0}),
    (build_half_line(3.0, 30), 1.0, {5: 1.0}, {30: 0.0}),
    (build_sym_line(2.0, 20), 1.0, {23: 1.0}, {}),
    (build_sym_line(2.0, 20), 0.0, {21: 1.0}, {20: 0.0}),
    (build_dyadic_tree(1.0, 5), 0.0, {}, _tree_leaves(build_dyadic_tree(1.0, 5), 5)),
    (build_dyadic_tree(2.0, 5), 1.0, {9: 1.0}, {}),
    (build_dyadic_tree(1.0, 5), 0.0, {0: -1.0}, dict.fromkeys(range(31, 63), 0.0)),
])
def test_tree_elimination_matches_exact_reference(graph, shift, rhs, pinned):
    u, diag = solve_reduced(graph, shift, rhs, pinned)
    ref = exact_reduced_solve(graph, shift, rhs, pinned)
    assert diag.method == "tree"
    assert graph.n_vertices - len(pinned) <= 64
    nz = ref != 0
    assert np.array_equal(u == 0, ~nz)
    assert np.max(np.abs(u[nz] - ref[nz]) / np.abs(ref[nz])) <= 1e-14


@pytest.mark.parametrize("graph, coordinate", [
    (build_sym_line(2.0, 64), 3),
    (build_half_line(2.0, 600), 300),
])
def test_former_resolvent_crashes_solve_backward_stably(graph, coordinate):
    x = graph.index_of(coordinate)
    result = resolvent_delta(graph, x)
    rhs = np.zeros(graph.n_vertices)
    rhs[x] = 1.0
    assert result.diagnostics["method"] == "tree"
    assert result.diagnostics["residual"] <= 1e-15
    assert backward_residual(graph, 1.0, result.vector.values, rhs) <= 1e-15
    assert result.contractive_ok


def test_backward_residual_scale_does_not_overflow():
    # the largest vertex weight, about 1.3e308, is past half the float range,
    # so 2 c(x) in the scale ||I + Lap||_inf would overflow to inf
    graph = build_half_line(2.0, 1023)
    x = graph.index_of(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, diag = solve_reduced(graph, 1.0, {x: 1.0}, {})
    ex, ey, ec = graph.edge_arrays
    n = graph.n_vertices
    flow = ec * (u[ex] - u[ey])
    rhs = np.zeros(n)
    rhs[x] = 1.0
    resid = u + np.bincount(ex, flow, n) - np.bincount(ey, flow, n) - rhs
    scale = ((1 + 2 * Fraction(float(np.max(graph.vertex_weights))))
             * Fraction(float(np.max(np.abs(u)))) + 1)
    assert 0 < diag.residual < float("inf")
    assert diag.residual == pytest.approx(float(Fraction(float(np.max(np.abs(resid)))) / scale),
                                          rel=1e-12)


def test_cyclic_graph_uses_dense_fallback():
    graph = read_graph("graph 4 4 0\nedge 0 1 1.0\nedge 1 2 2.0\n"
                       "edge 2 3 3.0\nedge 0 3 4.0\n")
    u, diag = solve_reduced(graph, 1.0, {2: 1.0}, {})
    assert diag.method == "dense"
    shifted = np.array([[6.0, -1.0, 0.0, -4.0], [-1.0, 4.0, -2.0, 0.0],
                        [0.0, -2.0, 6.0, -3.0], [-4.0, 0.0, -3.0, 8.0]])
    expected = np.linalg.solve(shifted, [0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(u, expected, rtol=1e-14)
    assert diag.residual <= 1e-15


@pytest.mark.parametrize("graph", [
    path_graph([1.0, 2.0, 3.0]),
    read_graph("graph 3 3 0\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n"),
])
def test_free_component_without_shift_is_singular(graph):
    with pytest.raises(SolverError):
        solve_reduced(graph, 0.0, {1: 1.0}, {})


def test_nonpositive_pivot_raises_solver_error():
    graph = path_graph([-1.0])
    with pytest.raises(SolverError):
        solve_reduced(graph, 1.0, {0: 1.0}, {})


def test_pinned_source_is_rejected():
    with pytest.raises(ValueError):
        solve_reduced(path_graph([1.0]), 0.0, {0: 1.0}, {0: 0.0})
