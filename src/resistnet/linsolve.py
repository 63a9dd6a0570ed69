"""The one linear solver behind every dipole, resolvent and Dirichlet solve.

solve_reduced solves (shift I + Lap) u = rhs on the unpinned vertices of a
graph, with u fixed on the pinned ones. Every built-in model is a tree, and
so is the unpinned subgraph it leaves, so the solve eliminates leaf to root
with no fill-in in O(V). Each vertex carries its "excess", the part of its
pivot not owed to its parent edge:

    excess(v) = shift + sum of pinned conductances at v
                + sum over children w of c(v, w) excess(w) / (excess(w) + c(v, w))

Every update is a sum of positive terms (the idea of Grassmann, Taksar and
Heyman's elimination), so pivots keep high relative accuracy however many
orders of magnitude the conductances span. A graph read from a file whose
unpinned part has a cycle falls back to one dense float solve. Either path reports
the normwise backward residual over the unpinned rows,

    ||(shift I + Lap) u - rhs||_inf / (||shift I + Lap||_inf ||u||_inf + ||rhs||_inf),

and raises SolverError, never a numpy error, when the system is singular
or the residual exceeds the tolerance.
"""

from __future__ import annotations

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


def solve_reduced(graph, shift, rhs, pinned, tol=1e-10):
    """Solve (shift I + Lap) u = rhs off the pinned set, u = pinned there.

    rhs maps unpinned vertices to their source values (zero elsewhere);
    pinned maps vertices to their fixed values. Returns (values, diagnostics)
    with values a float array over every vertex. A connected piece of the
    unpinned subgraph with no pinned neighbour and shift == 0 makes the
    system singular and raises SolverError, as does a backward residual
    above tol.
    """
    if any(v in pinned for v in rhs):
        raise ValueError("a source vertex is pinned")
    start, neighbours, conductances = graph.csr
    n = graph.n_vertices
    parent = [-1] * n
    up = [0.0] * n          # conductance of the edge to the parent
    seen = [False] * n
    excess = [shift] * n
    beta = [0.0] * n        # right-hand side as elimination updates it
    for v, value in rhs.items():
        beta[v] = float(value)
    order = []              # preorder of every unpinned component
    links = 0               # unpinned-unpinned edge ends
    components = 0
    for root in range(n):
        if seen[root] or root in pinned:
            continue
        seen[root] = True
        components += 1
        anchored = shift > 0
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for k in range(start[v], start[v + 1]):
                w, c = neighbours[k], conductances[k]
                if w == v:
                    continue
                if w in pinned:
                    anchored = True
                    excess[v] += c
                    beta[v] += c * pinned[w]
                    continue
                links += 1
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    up[w] = c
                    stack.append(w)
        if not anchored:
            raise SolverError(f"the component of vertex {root} has no pinned "
                              "vertex and shift is 0: the system is singular")
    if links == 2 * (len(order) - components):
        method = "tree"
        values = _eliminate_forest(order, parent, up, excess, beta)
    else:
        method = "dense"
        values = _solve_dense(graph, order, excess, beta)
    for v, value in pinned.items():
        values[v] = value
    diag = SolveDiagnostics(method, 0, _backward_residual(graph, shift, values, rhs, pinned), tol)
    if not diag.residual <= tol:
        raise SolverError(f"{method} solve backward residual {diag.residual:g} "
                          f"exceeds {tol:g}", diag)
    return values, diag


def _eliminate_forest(order, parent, up, excess, beta):
    """Leaf-to-root elimination over a forest given in preorder, then back-substitution."""
    pivot = [0.0] * len(parent)
    for v in reversed(order):
        p = parent[v]
        c = up[v]
        pivot[v] = d = excess[v] + c
        if not d > 0:
            raise SolverError(f"elimination reached pivot {d!r} at vertex {v}")
        if p >= 0:
            excess[p] += c * excess[v] / d
            beta[p] += c * beta[v] / d
    u = np.zeros(len(parent))
    for v in order:
        p = parent[v]
        u[v] = (beta[v] if p < 0 else beta[v] + up[v] * u[p]) / pivot[v]
    return u


def _solve_dense(graph, order, excess, beta):
    """One dense solve of the reduced system, for unpinned subgraphs with a cycle."""
    start, neighbours, conductances = graph.csr
    index = {v: i for i, v in enumerate(order)}
    a = np.diag([excess[v] for v in order])
    for v, i in index.items():
        for k in range(start[v], start[v + 1]):
            w, c = neighbours[k], conductances[k]
            j = index.get(w)
            if j is not None and w != v:
                a[i, i] += c
                a[i, j] -= c
    try:
        x = np.linalg.solve(a, [beta[v] for v in order])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense solve failed: {exc}") from exc
    u = np.zeros(graph.n_vertices)
    u[order] = x
    return u


def _backward_residual(graph, shift, u, rhs, pinned):
    """Normwise backward residual of (shift I + Lap) u = rhs over the unpinned rows."""
    n = graph.n_vertices
    b = np.zeros(n)
    for v, value in rhs.items():
        b[v] = value
    rows = np.ones(n, dtype=bool)
    rows[list(pinned)] = False
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
    if not half_scale > 0:
        return 0.0
    return float(np.max(np.abs(resid[rows])) / 2 / half_scale)
