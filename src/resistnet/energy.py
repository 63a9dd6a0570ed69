"""The energy form, the graph Laplacian as an operator, and dipole solves.

Functions on the vertex set are considered modulo constants: the energy
form only sees differences across edges, and normalization pins the value
at the base vertex to zero. On a finite connected graph the summation-by-
parts identity

    <v, u>_E = sum_x conj(v(x)) (Lap u)(x)

holds for every pair of vertex functions, which is what makes the dipole
reproducing property and the finite/ harmonic projection arithmetic exact
up to rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .graphs import (
    WeightedGraph, float_texts, format_rows, parse_rows, read_chunks, read_rows, write_chunks,
)
from .linsolve import point_source, solve_reduced


class ProjectionError(RuntimeError):
    def __init__(self, message, condition_estimate):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class EnergyVector:
    """A function on the vertices of one graph, compared modulo constants."""

    graph: WeightedGraph
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.graph.n_vertices,):
            raise ValueError("value array does not match the vertex count")
        object.__setattr__(self, "values", values)

    def normalize(self) -> "EnergyVector":
        """Pin the representative so it vanishes at the base vertex."""
        if self.normalized and self.values[self.graph.base_vertex] == 0:
            return self
        shifted = self.values - self.values[self.graph.base_vertex]
        return EnergyVector(self.graph, shifted, normalized=True)


def vector(graph, values) -> EnergyVector:
    return EnergyVector(graph, np.asarray(values, dtype=float))


def delta(graph, x) -> EnergyVector:
    """Dirac mass at vertex x."""
    values = np.zeros(graph.n_vertices)
    values[x] = 1.0
    return EnergyVector(graph, values)


def constant(graph, value=1.0) -> EnergyVector:
    return EnergyVector(graph, np.full(graph.n_vertices, float(value)))


def energy(u: EnergyVector) -> float:
    """Energy of u: sum over edges of c(x,y) |u(x)-u(y)|^2."""
    ex, ey, ec = u.graph.edge_arrays
    diff = u.values[ex] - u.values[ey]
    return float(np.real(np.sum(ec * diff * np.conj(diff))))


def energy_inner(u: EnergyVector, v: EnergyVector):
    """Energy inner product, conjugate-linear in the first argument."""
    if u.graph is not v.graph and u.graph != v.graph:
        raise ValueError("energy inner product requires a shared graph")
    ex, ey, ec = u.graph.edge_arrays
    du = np.conj(u.values[ex] - u.values[ey])
    dv = v.values[ex] - v.values[ey]
    out = np.sum(ec * du * dv)
    return float(out.real) if not np.iscomplexobj(out) else complex(out)


def apply_laplacian(u: EnergyVector) -> EnergyVector:
    """(Lap u)(x) = sum over neighbors y of c(x,y) (u(x) - u(y))."""
    ex, ey, ec = u.graph.edge_arrays
    out = np.zeros(u.graph.n_vertices, dtype=u.values.dtype)
    flow = ec * (u.values[ex] - u.values[ey])
    np.add.at(out, ex, flow)
    np.add.at(out, ey, -flow)
    return EnergyVector(u.graph, out)


def solve_dipole(graph: WeightedGraph, x: int, tol: float = 1e-10,
                 with_diagnostics: bool = False):
    """Solve Lap v = delta_x - delta_o with v(o) = 0.

    The right-hand side sums to zero, so the system is solvable on a
    connected graph; pinning the base vertex removes the constant
    nullspace and leaves a strictly positive definite system. On a tree
    it is solved by subtraction-free leaf-to-root elimination in O(V),
    which keeps high relative accuracy across the conductances' dynamic
    range; graphs with cycles fall back to one dense solve. The
    diagnostics carry the normwise backward residual.
    """
    o = graph.base_vertex
    if x == o:
        raise ValueError("dipole pole must differ from the base vertex")
    n = graph.n_vertices
    values, diag = solve_reduced(graph, 0.0, point_source(graph, x), np.arange(n) == o,
                                 np.zeros(n), tol)
    out = EnergyVector(graph, values, normalized=True)
    if with_diagnostics:
        return out, diag
    return out


def distance_bound(graph: WeightedGraph, x: int, path: Sequence[int]) -> float:
    """Upper bound (sum of 1/c along a path)^(1/2) for |u(x) - u(o)| / ||u||_E."""
    if not path or path[0] != graph.base_vertex or path[-1] != x:
        raise ValueError("path must run from the base vertex to x")
    total = 0.0
    for a, b in zip(path, path[1:]):
        c = graph.conductance(a, b)
        if c <= 0:
            raise ValueError(f"({a},{b}) is not an edge of the graph")
        total += 1.0 / c
    return sqrt(total)


def project_fin_harm(v: EnergyVector, harm_basis: Sequence[EnergyVector],
                     cond_limit: float = 1e12):
    """Split v into (fin_part, harm_part) with harm_part in span(harm_basis).

    The projection is energy-orthogonal, computed through the Gram matrix
    of the basis; a numerically singular Gram matrix raises
    ProjectionError carrying the condition estimate.
    """
    if not harm_basis:
        return v, EnergyVector(v.graph, np.zeros(v.graph.n_vertices))
    k = len(harm_basis)
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = energy_inner(harm_basis[i], harm_basis[j])
    rhs = np.array([energy_inner(h, v) for h in harm_basis])
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > cond_limit:
        raise ProjectionError(
            f"harmonic basis Gram matrix is numerically singular (cond ~ {cond:.3g})",
            cond)
    coef = np.linalg.solve(gram, rhs)
    harm_values = np.zeros(v.graph.n_vertices, dtype=v.values.dtype)
    for c, h in zip(coef, harm_basis):
        harm_values = harm_values + c * h.values
    harm_part = EnergyVector(v.graph, harm_values)
    fin_part = EnergyVector(v.graph, v.values - harm_values)
    return fin_part, harm_part


def random_interior_vector(graph: WeightedGraph, rng: np.random.Generator,
                           margin: int = 2) -> EnergyVector:
    """Gaussian values supported at hop distance >= margin from the frontier."""
    values = rng.standard_normal(graph.n_vertices)
    values[graph.frontier_distance < margin] = 0.0
    return EnergyVector(graph, values)


# -- serialization: CSV with header vertex,value ----------------------------

_VECTOR_ROW = np.dtype([("vertex", np.int64), ("value", np.float64)])
_NON_SPACE = re.compile(r"\S")


def write_vector(u: EnergyVector) -> str:
    values = np.asarray(u.values, dtype=float)
    return "".join(["vertex,value\n"] + [
        format_rows("%d,%s\n", (range(rows.start, min(rows.stop, len(values))),
                                float_texts(values[rows])))
        for rows in write_chunks(len(values))])


def _stripped_span(text):
    """(start, end) with text[start:end] == text.strip(), without copying text."""
    first = _NON_SPACE.search(text)
    if first is None:
        return 0, 0
    size = 64
    while not (tail := text[-size:]).rstrip():    # whitespace only: look further back
        size *= 4
    return first.start(), len(text) - len(tail) + len(tail.rstrip())


def read_vector(graph: WeightedGraph, text: str) -> EnergyVector:
    """Inverse of write_vector.

    The header is optional, blank rows are skipped, a vertex without a row
    is 0 and the last row for a vertex wins. A malformed row, a vertex
    outside 0..V-1 or a value that is not finite raises ValueError naming
    the first such row. The numbers are read by numpy's text reader, one
    chunk of lines at a time.
    """
    n = graph.n_vertices
    tables = [np.zeros(0, _VECTOR_ROW)]
    for first, rows in read_chunks(text, *_stripped_span(text)):
        if first == 0 and rows[0].strip().lower() == "vertex,value":
            rows = rows[1:]
        # one parse of the rows as they stand; loadtxt skips "" rows, so those
        # leave the row list too, and rejects whitespace-only ones, which are
        # then dropped with the other blank rows and the rest parsed again.
        # Either way table[k] is the record of rows[k]
        try:
            table, failed = parse_rows(rows, _VECTOR_ROW, delimiter=","), None
        except ValueError:
            rows = [row for row in rows if row.strip()]
            table, failed = read_rows(rows, _VECTOR_ROW, delimiter=",")
        else:
            if len(table) != len(rows):
                rows = [row for row in rows if row]
        vertices, values = table["vertex"], table["value"]
        marked = np.flatnonzero((vertices < 0) | (vertices >= n) | ~np.isfinite(values))
        bad = int(marked[0]) if marked.size else failed
        if bad is not None:
            row = rows[bad]
            if bad == failed:
                raise ValueError(f"malformed vector row {row!r}")
            i, v = table[bad].tolist()
            if not 0 <= i < n:
                raise ValueError(f"vector row {row!r}: vertex {i} is outside 0..{n - 1}")
            raise ValueError(f"vector row {row!r}: value {v!r} is not finite")
        tables.append(table)
    table = np.concatenate(tables)
    vertices, values = table["vertex"], table["value"]
    # each vertex's last row: np.unique gives first occurrences, so it runs
    # over the rows reversed
    _, from_end = np.unique(vertices[::-1], return_index=True)
    last = len(vertices) - 1 - from_end
    result = np.zeros(n)
    result[vertices[last]] = values[last]
    return EnergyVector(graph, result)
