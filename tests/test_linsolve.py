import hashlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

from resistnet import linsolve
from resistnet.boundary import resolvent_delta
from resistnet.embedding import dirichlet_monopole, tree_harmonic_direct
from resistnet.energy import solve_dipole
from resistnet.graphs import (
    WeightedGraph, build_dyadic_tree, build_half_line, build_sym_line, path_graph, read_graph,
)
from resistnet.linsolve import SolverError, point_source, solve_reduced


def solve_dicts(graph, shift, rhs, pinned):
    """solve_reduced on {vertex: value} cases, the three arrays built entry by entry.

    Each entry goes through point_source, rhs first, so every vertex is
    checked as solve_dipole and resolvent_delta check theirs.
    """
    n = graph.n_vertices
    b, fixed, fixed_values = np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n)
    for v, c in rhs.items():
        b += point_source(graph, v, c)
    for v, c in pinned.items():
        fixed_values += point_source(graph, v, c)
        fixed[v] = True
    return solve_reduced(graph, shift, b, fixed, fixed_values)


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
    # V - 1 edges, each vertex >= 1 the larger end of one, but one edge a
    # self-loop: not parent-first, and the loop adds nothing to the solve
    (read_graph("graph 4 3 0\nedge 0 1 2.0\nedge 1 2 3.0\nedge 3 3 5.0\n"), 1.0,
     {2: 1.0, 3: 1.0}, {}),
])
def test_tree_elimination_matches_exact_reference(graph, shift, rhs, pinned):
    u, diag = solve_dicts(graph, shift, rhs, pinned)
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
        u, diag = solve_dicts(graph, 1.0, {x: 1.0}, {})
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
    u, diag = solve_dicts(graph, 1.0, {2: 1.0}, {})
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
        solve_dicts(graph, 0.0, {1: 1.0}, {})


def test_nonpositive_pivot_raises_solver_error():
    graph = path_graph([-1.0])
    with pytest.raises(SolverError):
        solve_dicts(graph, 1.0, {0: 1.0}, {})


def test_pinned_source_is_rejected():
    with pytest.raises(ValueError):
        solve_dicts(path_graph([1.0]), 0.0, {0: 1.0}, {0: 0.0})


@pytest.mark.parametrize("rhs, pinned, vertex", [
    ({-1: 1.0}, {3: 0.0}, -1),      # -1 would alias the pinned vertex 3
    ({7: 1.0}, {}, 7),
    ({1: 1.0}, {4: 0.0}, 4),
    # point_source checks one vertex at a time, rhs first: the first outside
    # 0..3 is named
    ({1: 1.0, 9: 1.0, -3: 1.0}, {12: 0.0}, 9),
    ({-3: 1.0, 9: 1.0}, {12: 0.0}, -3),
    ({1: 1.0}, {0: 0.0, 5: 1.0, -1: 2.0}, 5),
    ({1: 1.0, 2: 1.0}, {0: 0.0, -4: 1.0, 6: 2.0}, -4),
    ({np.int64(7): 1.0}, {np.int32(2): 0.0}, 7),
    ({1: 1.0}, {np.uint8(4): 0.0}, 4),
    ({7.0: 1.0}, {}, 7.0),
    ({float("nan"): 1.0}, {9: 0.0}, "nan"),
    # so a vertex outside the range is named before a later key that is
    # not a number is compared
    ({9: 1.0, "a": 1.0}, {}, 9),
    ({9: 1.0, None: 1.0}, {}, 9),
    ({1: 1.0}, {9: 0.0, "b": 1.0}, 9),
    ({1: 1.0, np.uint64(2 ** 63): 1.0}, {}, 2 ** 63),
    ({1: 1.0}, {2: 0.0, 2 ** 70: 1.0}, 2 ** 70),
])
def test_vertex_outside_the_graph_is_rejected(rhs, pinned, vertex):
    with pytest.raises(ValueError, match=rf"^vertex {vertex} is not in the graph's range 0\.\.3$"):
        solve_dicts(path_graph([1.0, 2.0, 3.0]), 1.0, rhs, pinned)


def test_dipole_pole_outside_the_graph_is_rejected():
    # -1 would put the pole at vertex 3
    with pytest.raises(ValueError, match=r"^vertex -1 is not in the graph's range 0\.\.3$"):
        solve_dipole(path_graph([1.0, 2.0, 3.0]), -1)


_PUBLIC_SOLVERS = {
    "dipole": solve_dipole,
    "resolvent-free": resolvent_delta,
    "resolvent-dirichlet": lambda graph, x: resolvent_delta(graph, x, boundary="dirichlet"),
}


@pytest.mark.parametrize("solver", list(_PUBLIC_SOLVERS))
@pytest.mark.parametrize("x, error, message", [
    (-1, ValueError, "vertex -1 is not in the graph's range 0..3"),     # would alias 3
    (4, ValueError, "vertex 4 is not in the graph's range 0..3"),
    (np.int64(7), ValueError, "vertex 7 is not in the graph's range 0..3"),
    (np.uint8(4), ValueError, "vertex 4 is not in the graph's range 0..3"),
    (np.uint64(2 ** 63), ValueError, "vertex 9223372036854775808 is not in the graph's "
                                     "range 0..3"),
    (7.0, ValueError, "vertex 7.0 is not in the graph's range 0..3"),
    (float("nan"), ValueError, "vertex nan is not in the graph's range 0..3"),
    (2 ** 70, ValueError, f"vertex {2 ** 70} is not in the graph's range 0..3"),
    ("a", TypeError, "'<=' not supported between instances of 'int' and 'str'"),
    (None, TypeError, "'<=' not supported between instances of 'int' and 'NoneType'"),
    # inside the range, a float or a bool is refused as an index (numpy's
    # message), never cast
    (2.0, IndexError, None),
    (np.float64(2.0), IndexError, None),
    (True, IndexError, None),
])
def test_public_solvers_check_their_vertex(solver, x, error, message):
    with pytest.raises(error) as raised:
        _PUBLIC_SOLVERS[solver](build_half_line(2.0, 3), x)
    assert message is None or str(raised.value) == message


@pytest.mark.parametrize("solver", list(_PUBLIC_SOLVERS))
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
def test_public_solvers_take_numpy_integer_vertices_as_python_ints(solver, kind):
    graph = build_half_line(2.0, 6)
    u, v = (_PUBLIC_SOLVERS[solver](graph, x) for x in (2, kind(2)))
    u, v = (getattr(w, "vector", w).values for w in (u, v))
    assert u.tobytes() == v.tobytes()


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def test_tree_solves_are_pinned():
    # recorded from the depth-first search and vertex-at-a-time elimination
    # that the parent-first numbering and level elimination replaced
    assert _sha256(solve_dipole(build_dyadic_tree(1.0, 6), 50).values) == \
        "b3ac32b89fce119f1fa0cc7bd361fb996974e7117e273c196830734b7126b695"
    harmonic = tree_harmonic_direct(build_dyadic_tree(1.0, 7))
    assert _sha256(harmonic.vector.values) == \
        "57521bf9dae07bb85ffc74885ee553ac1a0101e2256c8163767d21bec08ca4cb"
    assert harmonic.energy_value == 1.0078740157480313
    # recorded while solve_reduced took its pins as {vertex: value} dicts
    assert _sha256(dirichlet_monopole(build_dyadic_tree(1.0, 7)).values) == \
        "07a2c2b053f43c254878100ac968191de9a34628dbb9ebf4e771f9a466fd8aee"
    assert _sha256(resolvent_delta(build_sym_line(2.0, 20), 25,
                                   boundary="dirichlet").vector.values) == \
        "78135fe674e4df59143e328add1230a230595a771290b1074568fda03885c3e7"


def _random_tree(n, rng, width=None):
    """A parent-first tree: each vertex's parent a smaller vertex, edges shuffled and
    half written child first, conductances over eight decades."""
    child = np.arange(1, n)
    low = np.zeros(n - 1, dtype=int) if width is None else np.maximum(child - width, 0)
    parent = rng.integers(low, child)
    flip = rng.random(n - 1) < 0.5
    rows = rng.permutation(n - 1)
    return WeightedGraph(n, (np.where(flip, child, parent)[rows],
                             np.where(flip, parent, child)[rows],
                             10.0 ** rng.uniform(-4, 4, n - 1)))


def _relabelled(graph, label):
    """The graph with each vertex v renumbered label[v]."""
    ex, ey, ec = graph.edge_arrays
    return WeightedGraph(graph.n_vertices, (label[ex], label[ey], ec))


@pytest.mark.parametrize("seed", range(4))
def test_relabelled_tree_takes_the_search_and_agrees(seed):
    rng = np.random.default_rng(seed)
    graph = _random_tree(300, rng)
    label = rng.permutation(300)
    relabelled = _relabelled(graph, label)
    fixed = np.zeros(300, dtype=bool)
    assert linsolve._numbered_forest(graph, fixed, False) is not None
    assert linsolve._numbered_forest(relabelled, fixed, False) is None
    pinned = {7: 0.5, 100: -1.0}
    for shift, rhs in ((1.0, {3: 1.0}), (0.0, {3: 1.0, 250: -2.0})):
        u, diag = solve_dicts(graph, shift, rhs, pinned)
        w, wdiag = solve_dicts(relabelled, shift, {int(label[v]): c for v, c in rhs.items()},
                               {int(label[v]): c for v, c in pinned.items()})
        assert diag.method == wdiag.method == "tree"
        np.testing.assert_allclose(w[label], u, rtol=1e-12, atol=1e-300)


def test_cyclic_graph_with_a_tree_edge_count_goes_dense():
    # V - 1 edges, but vertex 2 is the larger end of two: a triangle and an
    # isolated vertex, so the numbering is not parent-first and the search
    # finds the cycle
    graph = read_graph("graph 4 3 0\nedge 0 1 1.0\nedge 1 2 2.0\nedge 0 2 4.0\n")
    assert linsolve._numbered_forest(graph, np.zeros(4, dtype=bool), False) is None
    u, diag = solve_dicts(graph, 1.0, {2: 1.0}, {})
    assert diag.method == "dense"
    shifted = np.array([[6.0, -1.0, -4.0, 0.0], [-1.0, 4.0, -2.0, 0.0],
                        [-4.0, -2.0, 7.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    np.testing.assert_allclose(u, np.linalg.solve(shifted, [0.0, 0.0, 1.0, 0.0]), rtol=1e-14)


@pytest.mark.parametrize("graph, pinned, root", [
    (path_graph([1.0, 2.0, 3.0]), {}, 0),                     # parent-first
    (build_dyadic_tree(1.0, 4), {}, 0),
    (read_graph("graph 5 3 0\nedge 1 0 1.0\nedge 2 1 1.0\nedge 4 3 1.0\n"), {0: 0.0}, 3),
    (read_graph("graph 3 3 0\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n"), {}, 0),
    (build_dyadic_tree(1.0, 6), {}, 0),
])
def test_singular_component_message_names_its_smallest_vertex(graph, pinned, root):
    # a shift that is not > 0 (zero, negative or NaN) anchors no component
    for shift in (0.0, -1.0, float("nan")):
        with pytest.raises(SolverError) as error:
            solve_dicts(graph, shift, {1: 1.0}, pinned)
        assert str(error.value) == (f"the component of vertex {root} has no pinned vertex "
                                    f"and shift {shift!r} is not > 0: the system is singular")


def test_bad_pivot_is_named_in_elimination_order():
    cases = [
        # vertex 6 (a leaf) and vertex 1 (an inner vertex) both reach a
        # negative pivot; both kernels meet the leaf first
        ((0, 0, 1, 1, 2, 2), (1, 2, 3, 4, 5, 6), (-5.0, 1.0, 1.0, 1.0, 1.0, -5.0), 6, 6),
        # the chain 0-1-2-3 and the branch 0-4-5, each ending in a negative
        # pivot: the level kernel meets the deeper vertex 3 first, the scalar
        # loop vertex 5, whose parent ranks higher
        ((0, 1, 2, 0, 4), (1, 2, 3, 4, 5), (1.0, 1.0, -5.0, 1.0, -5.0), 3, 5),
    ]
    for x, y, c, by_levels, by_loop in cases:
        graph = WeightedGraph(len(x) + 1, (np.array(x), np.array(y), np.array(c)))
        for k, vertex in ((0, by_levels), (10 ** 9, by_loop)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linsolve, "LEVEL_MIN_VERTICES", k)
                with pytest.raises(SolverError) as error:
                    solve_dicts(graph, 1.0, {0: 1.0}, {})
            assert str(error.value) == f"elimination reached pivot -4.0 at vertex {vertex}"


def _layered_tree(width, depth, rng):
    """Parent-first tree with `width` vertices on each of `depth` levels below the root."""
    level_start = np.concatenate(([0, 1], 1 + width * np.arange(1, depth + 1)))
    parent = np.concatenate([rng.integers(level_start[d], level_start[d + 1], width)
                             for d in range(depth)])
    child = np.arange(1, len(parent) + 1)
    return WeightedGraph(len(parent) + 1, (parent, child, 10.0 ** rng.uniform(-3, 3, len(child))))


def _kernel_cases():
    rng = np.random.default_rng(21)
    tree = build_dyadic_tree(1.0, 9)
    yield "tree-free", tree, 1.0, {5: 1.0}, {}
    yield "tree-leaves", tree, 0.0, {}, _tree_leaves(tree, 9)
    yield "tree-frontier", tree, 0.0, {0: -1.0}, dict.fromkeys(tree.truncation.frontier, 0.0)
    yield "tree-inner-pins", tree, 0.0, {600: 1.0}, {0: 0.0, 3: 1.0, 40: -2.0}
    yield "layered", _layered_tree(50, 12, rng), 1.0, {7: 1.0, 400: -1.0}, {}
    yield "random", _random_tree(2000, rng), 0.0, {1500: 1.0}, {0: 0.0, 9: 3.0}
    yield "narrow", _random_tree(2000, rng, width=40), 1.0, {1500: 1.0}, {}
    yield "half-line", build_half_line(2.0, 600), 1.0, {300: 1.0}, {}
    # renumbered at random, so the breadth-first search orients it
    graph, label = _random_tree(2000, rng), rng.permutation(2000)
    yield ("relabelled", _relabelled(graph, label), 0.0, {int(label[1500]): 1.0},
           {int(label[0]): 0.0, 9: 3.0})


@pytest.mark.parametrize("name, graph, shift, rhs, pinned", list(_kernel_cases()),
                         ids=[case[0] for case in _kernel_cases()])
def test_scalar_and_level_kernels_give_the_same_bits(name, graph, shift, rhs, pinned,
                                                     monkeypatch):
    results, levels_ran = [], []
    level_kernel = linsolve._eliminate_levels
    monkeypatch.setattr(linsolve, "_eliminate_levels",
                        lambda *args: levels_ran.append(1) or level_kernel(*args))
    for k in (0, 10 ** 9):
        monkeypatch.setattr(linsolve, "LEVEL_MIN_VERTICES", k)
        levels_ran.clear()
        u, diag = solve_dicts(graph, shift, rhs, pinned)
        assert diag.method == "tree"
        assert levels_ran == ([1] if k == 0 else [])
        results.append(u)
    assert results[0].tobytes() == results[1].tobytes()


def _eliminate_into_an_array(order, parent, up, excess, beta):
    """The former _eliminate: back-substitution into a float array, one numpy scalar a step."""
    pivot = [0.0] * len(parent)
    for v in order:
        p = parent[v]
        c = up[v]
        pivot[v] = d = excess[v] + c
        if not d > 0:
            raise linsolve._bad_pivot(d, v)
        if p >= 0:
            excess[p] += c * excess[v] / d
            beta[p] += c * beta[v] / d
    u = np.zeros(len(parent))
    for v in reversed(order):
        p = parent[v]
        u[v] = (beta[v] if p < 0 else beta[v] + up[v] * u[p]) / pivot[v]
    return u


def _back_substitution_cases():
    tree, sym = build_dyadic_tree(1.0, 9), build_sym_line(2.0, 64)
    yield "half-line", build_half_line(2.0, 600), 1.0, {300: 1.0}, {}
    yield "half-line-pinned", build_half_line(3.0, 200), 0.0, {50: 1.0}, {0: 0.0, 200: -1.0}
    yield "sym-line", sym, 1.0, {sym.index_of(3): 1.0}, {}
    yield "sym-line-pinned", build_sym_line(1.5, 40), 0.0, {41: 1.0}, {40: 0.0}
    yield "tree", tree, 1.0, {5: 1.0}, {}
    yield "tree-leaves", tree, 0.0, {}, _tree_leaves(tree, 9)
    yield "tree-frontier", tree, 0.0, {0: -1.0}, dict.fromkeys(tree.truncation.frontier, 0.0)


@pytest.mark.parametrize("name, graph, shift, rhs, pinned", list(_back_substitution_cases()),
                         ids=[case[0] for case in _back_substitution_cases()])
def test_back_substitution_on_floats_gives_the_array_bits(name, graph, shift, rhs, pinned,
                                                          monkeypatch):
    monkeypatch.setattr(linsolve, "LEVEL_MIN_VERTICES", 10 ** 9)     # the scalar loop
    u, diag = solve_dicts(graph, shift, rhs, pinned)
    monkeypatch.setattr(linsolve, "_eliminate", _eliminate_into_an_array)
    w, wdiag = solve_dicts(graph, shift, rhs, pinned)
    assert diag.method == wdiag.method == "tree"
    assert u.dtype == w.dtype == np.float64
    assert u.tobytes() == w.tobytes()
    assert diag.residual == wdiag.residual


def _overflow_cases():
    """Pinned solves in which c * a / d overflows, for a the excess or the right-hand side."""
    sym, sym10 = build_sym_line(2.0 ** 20, 50), build_sym_line(10.0, 20)
    # a branch of conductances 1e300 pinned at its end, and one of small ones:
    # each level holds terms that overflow and terms that do not
    branches = WeightedGraph(9, (np.array([0, 1, 2, 3, 0, 5, 6, 7]), np.arange(1, 9),
                                 np.array([1e300] * 4 + [0.1, 0.7, 3.3, 0.9])))
    tree4, tree5 = build_dyadic_tree(2.0 ** 600, 4), build_dyadic_tree(2.0 ** 600, 5)
    yield "half-line", build_half_line(2.0 ** 20, 50), 1.0, {25: 1.0}, {50: 0.0}
    yield "sym-line", sym, 0.0, {}, {sym.index_of(-50): -1.0, sym.index_of(50): 1.0}
    yield "two-branches", branches, 1.0, {8: 1.0}, {4: 0.5}
    # only the right-hand side's terms overflow: to -inf on the left, +inf on the right
    yield ("sym-line-rhs", sym10, 0.0, {},
           {sym10.index_of(-20): -1e280, sym10.index_of(20): 1e280})
    yield "tree-leaves", tree4, 0.0, {}, _tree_leaves(tree4, 4)
    yield "tree-frontier", tree5, 1.0, {0: -1.0}, dict.fromkeys(tree5.truncation.frontier, 0.0)


@pytest.mark.parametrize("name, graph, shift, rhs, pinned", list(_overflow_cases()),
                         ids=[case[0] for case in _overflow_cases()])
def test_overflowing_terms_match_exact_reference(name, graph, shift, rhs, pinned, monkeypatch):
    results = []
    for k in (0, 10 ** 9):      # the level kernel, then the scalar loop
        monkeypatch.setattr(linsolve, "LEVEL_MIN_VERTICES", k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, diag = solve_dicts(graph, shift, rhs, pinned)
        assert diag.method == "tree"
        results.append(u)
    assert results[0].tobytes() == results[1].tobytes()
    ref = exact_reduced_solve(graph, shift, rhs, pinned)
    nz = ref != 0
    assert np.max(np.abs(u[nz] - ref[nz]) / np.abs(ref[nz])) <= 1e-14
    assert np.max(np.abs(u[~nz]), initial=0.0) <= 1e-14 * np.max(np.abs(ref))
    # every term formed as c * a / d: the former loop fails on each case
    monkeypatch.setattr(linsolve, "_eliminate", _eliminate_into_an_array)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="nan"):
        solve_dicts(graph, shift, rhs, pinned)


@pytest.mark.parametrize("N", [600, 1000])
def test_dirichlet_half_line_solves_past_the_float_range(N):
    # c * excess passes 2**1024 near the pinned end; 4.909093465297727e-91 is
    # the exact u(300) at N = 600 rounded, from a Fraction elimination
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = resolvent_delta(build_half_line(2.0, N), 300, boundary="dirichlet")
    assert result.diagnostics["method"] == "tree"
    assert result.vector.values[300] == 4.909093465297727e-91


@pytest.mark.parametrize("N", [4, 9])
def test_tree_harmonic_with_huge_conductances_is_the_unit_one(N):
    # N = 4 runs the scalar loop, N = 9 the level kernel; c = 2**600 scales the
    # system, not its solution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = tree_harmonic_direct(build_dyadic_tree(2.0 ** 600, N)).vector.values
    unit = tree_harmonic_direct(build_dyadic_tree(1.0, N)).vector.values
    assert np.max(np.abs(huge - unit)) <= np.finfo(float).eps


def test_numpy_integer_vertices_solve_as_python_ints():
    graph = build_dyadic_tree(1.0, 5)
    rhs, pinned = {9: 1.0, 40: -2.0}, {0: 0.5, 3: 1.0, 62: -1.0}
    u, diag = solve_dicts(graph, 0.0, rhs, pinned)
    for kind in (np.int64, np.int32, np.uint16):
        w, wdiag = solve_dicts(graph, 0.0, {kind(v): c for v, c in rhs.items()},
                               {kind(v): c for v, c in pinned.items()})
        assert w.tobytes() == u.tobytes()
        assert wdiag == diag


@pytest.mark.parametrize("rhs, pinned", [
    ({1: 1.0}, {2.0: 0.0}),
    ({2.0: 1.0}, {0: 0.0}),
    ({2.0: 1.0}, {}),
    ({1: 1.0}, {0: 0.0, 3.5: 1.0}),
])
def test_float_vertex_is_not_cast_to_an_index(rhs, pinned):
    # a float key is rejected, as a numpy index of floats is, never rounded
    with pytest.raises(IndexError):
        solve_dicts(path_graph([1.0, 2.0, 3.0]), 1.0, rhs, pinned)


@pytest.mark.parametrize("rhs, pinned", [
    ({"a": 1.0}, {}),
    ({1: 1.0}, {None: 0.0}),
    # a key that is not a number, met before any vertex outside the range
    ({"a": 1.0, 9: 1.0}, {}),
    ({1: 1.0, "a": 1.0}, {9: 0.0}),
    # float(value) rejects a value; it is never read as nan
    ({1: None}, {}),
    ({1: 1.0}, {0: None}),
])
def test_vertex_or_value_that_is_not_a_number_is_rejected(rhs, pinned):
    with pytest.raises(TypeError):
        solve_dicts(path_graph([1.0, 2.0, 3.0]), 1.0, rhs, pinned)


@pytest.mark.parametrize("rhs, pinned", [
    ({0: 1.0, 2: 1.0}, {1: 0.0, 2: 0.0}),
    ({np.int64(2): 1.0}, {2: 0.0}),
    ({2: 1.0}, {np.int32(2): 0.0}),
])
def test_pinned_source_among_several_is_rejected(rhs, pinned):
    with pytest.raises(ValueError, match=r"^a source vertex is pinned$"):
        solve_dicts(path_graph([1.0, 2.0, 3.0]), 1.0, rhs, pinned)


def test_pinned_values_are_written_as_floats():
    graph = path_graph([1.0, 2.0, 3.0])
    fixed = np.array([True, False, False, True])
    # fixed_values is read only where fixed is set
    u, _ = solve_reduced(graph, 0.0, np.array([0, 1, 0, 0]), fixed,
                         np.array([0, 7, 7, 0.5], dtype=np.float32))
    v, _ = solve_reduced(graph, 0.0, np.array([0.0, 1.0, 0.0, 0.0]), fixed,
                         np.array([0.0, 0.0, 0.0, float(np.float32(0.5))]))
    assert u.dtype == np.float64 and u.tobytes() == v.tobytes()
    assert u[3] == 0.5 and u[0] == 0.0


@pytest.mark.parametrize("rhs, fixed, fixed_values", [
    (np.zeros(3), np.zeros(4, dtype=bool), np.zeros(4)),
    (np.zeros(4), np.zeros(5, dtype=bool), np.zeros(4)),
    (np.zeros(4), np.zeros(4, dtype=bool), np.zeros(40)),
    (np.zeros((4, 1)), np.zeros(4, dtype=bool), np.zeros(4)),
    (np.zeros(4), np.zeros((1, 4), dtype=bool), np.zeros(4)),
    (np.zeros(4), np.zeros(4, dtype=bool), 0.0),
])
def test_arrays_of_the_wrong_length_are_rejected(rhs, fixed, fixed_values):
    with pytest.raises(ValueError, match=r"^rhs, fixed and fixed_values must be arrays of "
                                         r"length 4$"):
        solve_reduced(path_graph([1.0, 2.0, 3.0]), 1.0, rhs, fixed, fixed_values)


@pytest.mark.parametrize("fixed", [
    np.array([1, 0, 0, 0]),             # as an index array it would pin vertices 1 and 0
    np.array([0, 0, 0, 3]),
    np.array([1.0, 0.0, 0.0, 0.0]),
])
def test_mask_that_is_not_bool_is_rejected(fixed):
    with pytest.raises(TypeError, match=r"^fixed must be a bool mask"):
        solve_reduced(path_graph([1.0, 2.0, 3.0]), 0.0, np.array([0.0, 1.0, 0.0, 0.0]),
                      fixed, np.zeros(4))


@pytest.mark.parametrize("source", [1.0, -2.0, 5e-324, float("nan"), float("inf")])
def test_nonzero_source_on_a_pinned_vertex_is_rejected(source):
    graph = path_graph([1.0, 2.0, 3.0])
    rhs = np.array([0.0, 1.0, source, 0.0])
    fixed = np.array([True, False, True, False])
    with pytest.raises(ValueError, match=r"^a source vertex is pinned$"):
        solve_reduced(graph, 1.0, rhs, fixed, np.zeros(4))
    # a zero of either sign on a pinned vertex is no source
    expected = solve_dicts(graph, 1.0, {1: 1.0}, {0: 0.0, 2: 0.0})[0]
    for zero in (0.0, -0.0):
        rhs[2] = zero
        assert solve_reduced(graph, 1.0, rhs, fixed, np.zeros(4))[0].tobytes() == \
            expected.tobytes()


def test_a_solve_whose_scale_is_not_finite_is_never_exact():
    # c(1) = 1e308 + 1e308 overflows, so the residual's scale is infinite
    # and any residual over it would read 0.0; the solve is refused instead
    graph = path_graph([1e308, 1e308])
    rhs = np.zeros(3)
    rhs[0] = 1.0
    with pytest.raises(SolverError, match="backward residual nan"):
        solve_reduced(graph, 1.0, rhs, np.zeros(3, dtype=bool), np.zeros(3))
