"""The one linear solver behind every dipole, resolvent and Dirichlet solve.

solve_reduced solves (shift I + Lap) u = rhs on the unpinned vertices of a
graph, with u fixed on the pinned ones, given as arrays over the vertices:
the right-hand side, a bool mask of the pinned vertices (a frontier is
~graph.interior_mask) and their values. point_source builds the right-hand
side of one vertex given from outside, a pole or a source, and checks it.

Every built-in model is a tree, and so is the unpinned subgraph it leaves,
so the solve eliminates leaf to root with no fill-in in O(V). Each vertex
carries its "excess", the part of its pivot not owed to its parent edge:

    excess(v) = shift + sum of pinned conductances at v
                + sum over children w of c(v, w) excess(w) / (excess(w) + c(v, w))

Every update is a sum of positive terms (the idea of Grassmann, Taksar and
Heyman's elimination), so pivots keep high relative accuracy however many
orders of magnitude the conductances span. A vertex adds its pinned
neighbours' terms and then its children's, each in the order of its edges.
A child passes up c * a / d, for a its excess or its right-hand side and d
its pivot. Only where that overflows is the term formed as c / d * a,
whose factor c / d <= 1 cannot overflow, so every term that did not
overflow keeps its rounding.

Orientation. Two orientations describe the unpinned forest alike: each
vertex's parent and parent-edge conductance, and a rank under which every
parent ranks below its children. A graph from a builder, or written and
read back, is parent-first: V-1 edges, no self-loop, and every vertex
v >= 1 the larger end of exactly one edge, the one to its parent. Its
forest is read off the edge arrays, and rank is the vertex index. Any
other graph is oriented by a breadth-first search, children in edge order,
and rank is the place in the search. Both root each tree at its smallest
vertex, so they give the same parents and the same order of children.

Elimination. Depths come from pointer jumping, and the forest is
eliminated one depth level at a time, deepest first, and back-substituted
root first. np.add.at adds a level's terms to their parents in edge order,
so every float is the one a vertex-at-a-time loop gives. A level costs a
fixed number of array calls, about LEVEL_MIN_VERTICES vertices of the
scalar loop, so a forest whose levels average fewer vertices (a line
model, a small tree) runs one scalar loop instead, ordered by the rank of
each vertex's parent. Either kernel names the first pivot it meets that
is not > 0. When the search finds a cycle in the unpinned part, one dense
float solve runs instead.

Every path reports the normwise backward residual over the unpinned rows,

    ||(shift I + Lap) u - rhs||_inf / (||shift I + Lap||_inf ||u||_inf + ||rhs||_inf),

and raises SolverError, never a numpy error, when the system is singular
or the residual exceeds the tolerance. For any u, ||A u - b|| <= ||A||
||u|| + ||b||, so the residual never exceeds 1 (up to one rounding): a
tolerance of 1 or more accepts any u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import record_dict


class SolverError(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SolveDiagnostics:
    """Machine-readable record of one linear solve."""

    method: str
    iterations: int
    residual: float
    tolerance: float

    to_dict = record_dict


def solve_reduced(graph, shift, rhs, fixed, fixed_values, tol=1e-10):
    """Solve (shift I + Lap) u = rhs off the pinned vertices, u = fixed_values on them.

    rhs and fixed_values are float arrays over every vertex and fixed a bool
    mask of the pinned ones; fixed_values is read only where fixed is set,
    and rhs must be zero there. Returns (values, diagnostics) with values a
    float array over every vertex. A connected piece of the unpinned
    subgraph with no pinned neighbour and shift == 0 makes the system
    singular and raises SolverError, as does a backward residual above tol.
    """
    n = graph.n_vertices
    rhs, fixed, fixed_values = (np.asarray(rhs, dtype=float), np.asarray(fixed),
                                np.asarray(fixed_values, dtype=float))
    if not rhs.shape == fixed.shape == fixed_values.shape == (n,):
        raise ValueError(f"rhs, fixed and fixed_values must be arrays of length {n}")
    if fixed.dtype != bool:
        raise TypeError(f"fixed must be a bool mask, not {fixed.dtype} entries")
    if rhs[fixed].any():
        raise ValueError("a source vertex is pinned")
    any_fixed = bool(fixed.any())
    forest = _numbered_forest(graph, fixed, any_fixed)
    if forest is None:
        forest = _searched_forest(graph, fixed, shift)
    elif not (any_fixed or shift > 0):
        raise _singular(0, shift)   # a parent-first graph is one connected tree
    excess, beta = _reduced_terms(graph, shift, rhs, fixed, fixed_values, any_fixed)
    if forest is None:
        method, values = "dense", _solve_dense(graph, fixed, excess, beta)
    else:
        method, values = "tree", _eliminate_forest(*forest, excess, beta)
    np.copyto(values, fixed_values, where=fixed)
    diag = SolveDiagnostics(method, 0, _backward_residual(graph, shift, values, rhs, fixed), tol)
    if not diag.residual <= tol:
        raise SolverError(f"{method} solve backward residual {diag.residual:g} "
                          f"exceeds {tol:g}", diag)
    return values, diag


def point_source(graph, x, value=1.0):
    """The float array that is float(value) at vertex x and 0 elsewhere.

    A vertex outside 0..V-1 raises ValueError naming it, one that cannot be
    compared with an int TypeError, and one inside that is not an integer
    IndexError; float() refuses a value that is not a number (numpy would
    store None as NaN).
    """
    n = graph.n_vertices
    if not 0 <= x < n:
        raise ValueError(f"vertex {x} is not in the graph's range 0..{n - 1}")
    b = np.zeros(n)
    b[np.array([x])] = float(value)     # an index array: a bool or float x is refused
    return b


def _bad_pivot(d, v):
    return SolverError(f"elimination reached pivot {d!r} at vertex {v}")


def _singular(root, shift):
    return SolverError(f"the component of vertex {root} has no pinned vertex and "
                       f"shift {float(shift)!r} is not > 0: the system is singular")


def _reduced_terms(graph, shift, rhs, fixed, fixed_values, any_fixed):
    """(excess, beta) before elimination: shift and rhs plus the pinned neighbours' terms.

    A vertex adds its pinned neighbours' conductances, and those times the
    pinned values, in the order of its edges.
    """
    excess = np.full(graph.n_vertices, float(shift))
    beta = rhs.copy()
    if any_fixed:
        ex, ey, ec = graph.edge_arrays
        at_x = fixed[ex]
        contact = np.flatnonzero(at_x != fixed[ey])
        inner = np.where(at_x[contact], ey[contact], ex[contact])
        c = ec[contact]
        np.add.at(excess, inner, c)
        np.add.at(beta, inner, c * fixed_values[ex[contact] + ey[contact] - inner])
    return excess, beta


def _numbered_forest(graph, fixed, any_fixed):
    """(free, parent, up, rank) of the unpinned forest of a parent-first graph, else None.

    free lists the unpinned vertices, vertex 0 first and then in the order
    of their parent edges; parent is -1 at the roots (vertex 0 and the
    vertices under a pinned parent, each the smallest vertex of its
    component) and at pinned vertices, where up, the parent-edge
    conductance, is 0; rank is the vertex index.
    """
    ex, ey, ec = graph.edge_arrays
    n = graph.n_vertices
    if len(ec) != n - 1:
        return None
    child = np.maximum(ex, ey).astype(np.int64, copy=False)
    if np.any(ex == ey) or np.bincount(child, minlength=n).max() > 1:
        return None
    parent = np.full(n, -1)
    parent[child] = np.minimum(ex, ey)
    up = np.zeros(n)
    up[child] = ec
    free = np.concatenate(([0], child))
    if any_fixed:
        free = free[~fixed[free]]
        cut = fixed | ((parent >= 0) & fixed[parent])
        parent[cut] = -1
        up[cut] = 0.0
    return free, parent, up, np.arange(n)


def _searched_forest(graph, fixed, shift):
    """(free, parent, up, rank) of the unpinned forest by breadth-first search, else None.

    Each search starts at the smallest unseen unpinned vertex; free lists
    the vertices as found, rank is the place in free, and parent and up are
    as in _numbered_forest. None when the unpinned subgraph has a cycle;
    SolverError when a component has no pinned neighbour and not shift > 0.
    """
    start, neighbours, conductances = (a.tolist() for a in graph.csr)
    fixed = fixed.tolist()
    n = graph.n_vertices
    parent = [-1] * n
    up = [0.0] * n
    seen = fixed[:]
    order = []
    links = 0               # unpinned-unpinned edge ends
    components = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        components += 1
        anchored = shift > 0
        queue = [root]
        for v in queue:     # grows as the search finds children
            for k in range(start[v], start[v + 1]):
                w = neighbours[k]
                if w == v:
                    continue
                if fixed[w]:
                    anchored = True
                    continue
                links += 1
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    up[w] = conductances[k]
                    queue.append(w)
        if not anchored:
            raise _singular(root, shift)
        order += queue
    if links != 2 * (len(order) - components):
        return None
    del start, neighbours, conductances, seen   # before the arrays are built
    rank = np.zeros(n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    return np.array(order, dtype=np.int64), np.array(parent), np.array(up), rank


def _eliminate_forest(free, parent, up, rank, excess, beta):
    """u on a forest from either orientation: by levels if they are wide enough, else the loop."""
    levels = _levels(free, parent, rank)
    if levels is not None:
        return _eliminate_levels(*levels, parent, up, excess, beta)
    # parents in decreasing rank put every vertex after its children, roots last
    key = np.where(parent[free] >= 0, rank[parent[free]], -1)
    order = free[np.argsort(-key, kind="stable")]
    return _eliminate(*(a.tolist() for a in (order, parent, up, excess, beta)))


# One level of the array kernel costs about as much as this many vertices
# of the scalar loop: whole solves on trees of 20 and 200 levels of even
# width broke even at 22 to 35 vertices a level (CPython 3.11.7, numpy
# 2.4.6, 2-CPU x86-64 host). Forests whose levels average fewer vertices
# run the loop.
LEVEL_MIN_VERTICES = 30


def _levels(free, parent, rank):
    """(order, bounds) of the forest's depth levels, or None if they average < LEVEL_MIN_VERTICES.

    order lists free one level at a time, deepest first and in the given
    order within a level; bounds[i]:bounds[i+1] is the i-th level in
    order. The depth of the free vertex of largest rank, found by walking
    up at most as far as the average allows, settles most forests that
    average too few; otherwise the depths come from pointer jumping.
    """
    if len(free) == 0:
        return None
    v, seen = free[rank[free].argmax()], 1      # levels met walking up from v
    while len(free) >= LEVEL_MIN_VERTICES * seen and (v := parent.item(v)) >= 0:
        seen += 1
    if len(free) < LEVEL_MIN_VERTICES * seen:
        return None
    n = len(parent)
    top = np.where(parent < 0, np.arange(n), parent)
    depth = (parent >= 0).astype(np.int64)    # hops from each vertex to top
    while ((above := top[top]) != top).any():
        depth += depth[top]
        top = above
    del top, above
    depth = depth[free]
    deepest = int(depth.max())
    if len(free) < LEVEL_MIN_VERTICES * (deepest + 1):
        return None
    key = (deepest - depth).astype(np.min_scalar_type(deepest))
    bounds = np.zeros(deepest + 2, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=deepest + 1), out=bounds[1:])
    return free[np.argsort(key, kind="stable")], bounds


def _eliminate(order, parent, up, excess, beta):
    """Leaf-to-root elimination, then back-substitution, one vertex at a time.

    order lists every unpinned vertex after its children, and the
    children of a vertex in the order of its edges; all five are lists.
    Both passes run on Python floats, u included, and the array is built
    once at the end: IEEE arithmetic gives the floats numpy scalars would,
    without a numpy scalar per step.
    """
    pivot = [0.0] * len(parent)
    isfinite = math.isfinite
    for v in order:
        p = parent[v]
        c = up[v]
        pivot[v] = d = excess[v] + c
        if not d > 0:
            raise _bad_pivot(d, v)
        if p >= 0:
            t = c * excess[v] / d
            excess[p] += t if isfinite(t) else c / d * excess[v]
            t = c * beta[v] / d
            beta[p] += t if isfinite(t) else c / d * beta[v]
    u = [0.0] * len(parent)
    for v in reversed(order):
        p = parent[v]
        u[v] = (beta[v] if p < 0 else beta[v] + up[v] * u[p]) / pivot[v]
    return np.array(u)


def _eliminate_levels(order, bounds, parent, up, excess, beta):
    """_eliminate one depth level at a time, each level a few array operations.

    Within a level np.add.at adds in order, so each vertex takes its
    children's terms in the order of its edges: the floats are _eliminate's.
    """
    pivot = np.zeros(len(parent))
    spans = [order[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    with np.errstate(all="ignore"):
        for v in spans:
            c, e = up[v], excess[v]
            pivot[v] = d = e + c
            if not np.all(d > 0):
                k = int(np.argmin(d > 0))
                raise _bad_pivot(float(d[k]), int(v[k]))
            if v is not spans[-1]:     # the last level holds the roots
                p = parent[v]
                np.add.at(excess, p, _child_terms(c, e, d))
                np.add.at(beta, p, _child_terms(c, beta[v], d))
    u = np.zeros(len(parent))
    roots = spans[-1]
    u[roots] = beta[roots] / pivot[roots]
    for v in reversed(spans[:-1]):
        u[v] = (beta[v] + up[v] * u[parent[v]]) / pivot[v]
    return u


def _child_terms(c, a, d):
    """c * a / d, formed as c / d * a where it overflows, as in _eliminate."""
    t = c * a / d
    if not np.isfinite(t).all():
        t = np.where(np.isfinite(t), t, c / d * a)
    return t


def _solve_dense(graph, fixed, excess, beta):
    """One dense solve of the reduced system, for unpinned subgraphs with a cycle."""
    start, neighbours, conductances = (a.tolist() for a in graph.csr)
    order = np.flatnonzero(~fixed).tolist()
    index = {v: i for i, v in enumerate(order)}
    a = np.diag(excess[order])
    for v, i in index.items():
        for k in range(start[v], start[v + 1]):
            w, c = neighbours[k], conductances[k]
            j = index.get(w)
            if j is not None and w != v:
                a[i, i] += c
                a[i, j] -= c
    try:
        x = np.linalg.solve(a, beta[order])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense solve failed: {exc}") from exc
    u = np.zeros(graph.n_vertices)
    u[order] = x
    return u


def _backward_residual(graph, shift, u, b, fixed):
    """Normwise backward residual of (shift I + Lap) u = b over the unpinned rows."""
    n = graph.n_vertices
    rows = ~fixed
    if not np.all(np.isfinite(u)):
        return float("nan")
    if not rows.any():
        return 0.0
    ex, ey, ec = graph.edge_arrays
    flow = ec * (u[ex] - u[ey])
    resid = shift * u + np.bincount(ex, flow, n) - np.bincount(ey, flow, n) - b
    # both sides halved, so 2 c(x) cannot overflow; halving is exact, so the
    # quotient is the same float as the unhalved one
    half_scale = (np.max(shift / 2 + graph.vertex_weights[rows]) * np.max(np.abs(u))
                  + np.max(np.abs(b[rows])) / 2)
    # a scale that is not finite measures nothing, and must not read as exact
    if not np.isfinite(half_scale):
        return float("nan")
    if not half_scale > 0:
        return 0.0
    return float(np.max(np.abs(resid[rows])) / 2 / half_scale)
