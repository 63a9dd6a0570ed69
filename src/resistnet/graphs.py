"""Weighted graphs with positive edge conductances, and the model families.

A graph here is a finite vertex set {0, ..., V-1}, a set of unordered edges
carrying strictly positive conductances, and a distinguished base vertex.
The model constructors build finite truncations of one-sided and two-sided
geometric lines, the A-B two-sided line, and the binary (dyadic) tree; each
records which vertices sit on the truncation frontier so that analysis code
can restrict identities to interior vertices. `ModelSpec` is the model
registry: the one place that turns a family and its parameters into a graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

HALF_LINE_GEOM = "HALF_LINE_GEOM"
LINE_GEOM_SYM = "LINE_GEOM_SYM"
LINE_AB = "LINE_AB"
DYADIC_TREE = "DYADIC_TREE"


class GraphStructureError(ValueError):
    """Malformed graph data (indices out of range, bad shapes).

    Distinct from axiom violations, which validate() reports rather than
    raises.
    """


@dataclass(frozen=True)
class TruncationInfo:
    """How a finite graph was cut out of its infinite model."""

    family: str
    depth: int
    params: dict = field(default_factory=dict)
    frontier: tuple = ()
    # index of the vertex at model coordinate 0 (lines store coordinate
    # x at index x + offset)
    origin_offset: int = 0
    boundary_policy: str = "free"


@dataclass(frozen=True)
class WeightedGraph:
    """Finite weighted graph: vertices 0..n_vertices-1, unordered edges.

    Edges are stored once per unordered pair as (x, y, c) with x < y after
    normalization by the constructors in this module; validate() checks the
    axioms (positivity, no self-loops, single storage per pair,
    connectivity from the base vertex) without assuming them.
    """

    n_vertices: int
    edges: tuple
    base_vertex: int = 0
    labels: Optional[tuple] = None
    truncation: Optional[TruncationInfo] = None

    def __post_init__(self):
        if self.n_vertices < 1:
            raise GraphStructureError("graph needs at least one vertex")
        for e in self.edges:
            if len(e) != 3:
                raise GraphStructureError(f"edge record {e!r} is not (x, y, c)")
            x, y, _ = e
            if not (0 <= x < self.n_vertices and 0 <= y < self.n_vertices):
                raise GraphStructureError(f"edge {e!r} has vertex out of range")
        if not 0 <= self.base_vertex < self.n_vertices:
            raise GraphStructureError("base vertex out of range")
        if self.labels is not None and len(self.labels) != self.n_vertices:
            raise GraphStructureError("labels length must match vertex count")

    @cached_property
    def adjacency(self):
        """Per-vertex list of (neighbor, conductance)."""
        adj = [[] for _ in range(self.n_vertices)]
        for x, y, c in self.edges:
            adj[x].append((y, c))
            adj[y].append((x, c))
        return adj

    @cached_property
    def vertex_weights(self):
        """c(x) = sum of conductances of edges at x, as a float array."""
        w = np.zeros(self.n_vertices)
        for x, y, c in self.edges:
            w[x] += c
            w[y] += c
        return w

    @cached_property
    def interior_mask(self):
        """True where the vertex keeps its full (untruncated) neighborhood."""
        mask = np.ones(self.n_vertices, dtype=bool)
        if self.truncation is not None:
            for v in self.truncation.frontier:
                mask[v] = False
        return mask

    @cached_property
    def edge_arrays(self):
        """(x_indices, y_indices, conductances) as numpy arrays."""
        if not self.edges:
            empty = np.zeros(0, dtype=int)
            return empty, empty.copy(), np.zeros(0)
        ex = np.array([e[0] for e in self.edges], dtype=int)
        ey = np.array([e[1] for e in self.edges], dtype=int)
        ec = np.array([e[2] for e in self.edges], dtype=float)
        return ex, ey, ec

    @cached_property
    def frontier_distance(self):
        """Hop distance to the nearest frontier vertex (n_vertices if none)."""
        d = np.full(self.n_vertices, self.n_vertices, dtype=int)
        queue = deque()
        if self.truncation is not None:
            for v in self.truncation.frontier:
                d[v] = 0
                queue.append(v)
        while queue:
            x = queue.popleft()
            for y, _ in self.adjacency[x]:
                if d[y] > d[x] + 1:
                    d[y] = d[x] + 1
                    queue.append(y)
        return d

    @cached_property
    def depths(self):
        """Hop distance from the base vertex (-1 if unreachable)."""
        d = np.full(self.n_vertices, -1, dtype=int)
        d[self.base_vertex] = 0
        queue = deque([self.base_vertex])
        while queue:
            x = queue.popleft()
            for y, _ in self.adjacency[x]:
                if d[y] < 0:
                    d[y] = d[x] + 1
                    queue.append(y)
        return d

    def neighbors(self, x):
        return [y for y, _ in self.adjacency[x]]

    def conductance(self, x, y):
        for z, c in self.adjacency[x]:
            if z == y:
                return c
        return 0.0

    def index_of(self, position):
        """Vertex index of a model coordinate (the identity on the tree)."""
        if self.truncation is None:
            raise GraphStructureError("graph has no coordinate layout")
        return position + self.truncation.origin_offset

    def laplacian_dense(self):
        """Dense matrix of the graph Laplacian (c(x) diagonal, -c(x,y) off)."""
        m = np.zeros((self.n_vertices, self.n_vertices))
        for x, y, c in self.edges:
            m[x, x] += c
            m[y, y] += c
            m[x, y] -= c
            m[y, x] -= c
        return m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the axiom checks; empty violation list means valid."""

    violations: tuple

    @property
    def is_valid(self):
        return len(self.violations) == 0

    def codes(self):
        return sorted({v[0] for v in self.violations})


def validate(graph: WeightedGraph) -> ValidationReport:
    """Check the weighted-graph axioms and report every violation.

    Reported codes: "self_loop", "positivity", "symmetry" (an unordered
    pair stored more than once), "connectivity".
    """
    violations = []
    seen = {}
    for x, y, c in graph.edges:
        if x == y:
            violations.append(("self_loop", f"edge ({x},{y}) is a self-loop"))
            continue
        key = (min(x, y), max(x, y))
        if key in seen:
            violations.append(
                ("symmetry", f"pair {key} stored more than once (c={seen[key]!r}, c={c!r})")
            )
        else:
            seen[key] = c
        if not c > 0:
            violations.append(("positivity", f"edge {key} has conductance {c!r} <= 0"))

    missing = np.flatnonzero(graph.depths < 0).tolist()
    if missing:
        violations.append(
            ("connectivity", f"vertices {missing} unreachable from base {graph.base_vertex}")
        )
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class ModelSpec:
    """A model instance (family + parameters) and the graph it builds.

    This is the model registry. The graph is built once, at construction,
    by the family's builder, whose checks are the parameter validation: an
    unknown family or an invalid parameter raises ValueError.
    """

    family: str
    N: int
    M: Optional[float] = None
    A: Optional[float] = None
    B: Optional[float] = None
    c_const: Optional[float] = None
    _graph: WeightedGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family == HALF_LINE_GEOM:
            graph = build_half_line(self.M, self.N)
        elif self.family == LINE_GEOM_SYM:
            graph = build_sym_line(self.M, self.N)
        elif self.family == LINE_AB:
            graph = build_ab_line(self.A, self.B, self.N)
        elif self.family == DYADIC_TREE:
            graph = build_dyadic_tree(self.c_const, self.N)
        else:
            raise ValueError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "_graph", graph)

    def build(self) -> WeightedGraph:
        return self._graph


def _require_ratio(value, name):
    if value is None or not 1 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 1 (got {value!r}); "
                         "the geometric models assume it")


def _require_depth(n):
    if n < 2:
        raise ValueError(f"truncation depth N must be >= 2 (got {n})")


def build_half_line(M: float, N: int, scale: float = 1.0) -> WeightedGraph:
    """One-sided line 0--1--...--N, conductance scale * M**n on edge (n-1, n)."""
    _require_ratio(M, "M")
    _require_depth(N)
    if not scale > 0:
        raise ValueError(f"scale must be > 0 (got {scale!r})")
    edges = tuple((n - 1, n, float(scale) * float(M) ** n) for n in range(1, N + 1))
    info = TruncationInfo(HALF_LINE_GEOM, N, {"M": float(M)}, frontier=(N,))
    return WeightedGraph(N + 1, edges, base_vertex=0, truncation=info)


def build_sym_line(M: float, N: int) -> WeightedGraph:
    """Two-sided line -N..N, conductance M**|x| between |x|-1 and |x|.

    Vertex at coordinate x is stored at index x + N; the base vertex is
    coordinate 0.
    """
    _require_ratio(M, "M")
    _require_depth(N)
    M = float(M)
    edges = []
    for x in range(1, N + 1):
        c = M ** x
        edges.append((x - 1 + N, x + N, c))        # (x-1, x) on the right
        edges.append((-x + N, -x + 1 + N, c))      # (-x, -x+1) on the left
    info = TruncationInfo(
        LINE_GEOM_SYM, N, {"M": M}, frontier=(0, 2 * N), origin_offset=N
    )
    labels = tuple(str(i - N) for i in range(2 * N + 1))
    return WeightedGraph(2 * N + 1, tuple(edges), base_vertex=N, labels=labels,
                         truncation=info)


def build_ab_line(A: float, B: float, N: int) -> WeightedGraph:
    """Two-sided line with ratio A on the right half and B on the left."""
    _require_ratio(A, "A")
    _require_ratio(B, "B")
    _require_depth(N)
    A, B = float(A), float(B)
    edges = []
    for n in range(1, N + 1):
        edges.append((n - 1 + N, n + N, A ** n))
        edges.append((-n + N, -n + 1 + N, B ** n))
    info = TruncationInfo(
        LINE_AB, N, {"A": A, "B": B}, frontier=(0, 2 * N), origin_offset=N
    )
    labels = tuple(str(i - N) for i in range(2 * N + 1))
    return WeightedGraph(2 * N + 1, tuple(edges), base_vertex=N, labels=labels,
                         truncation=info)


def build_dyadic_tree(c_const: float, N: int) -> WeightedGraph:
    """Binary tree of all bit-words of length <= N, constant conductance.

    Vertices are labeled by their bit-words (the root is the empty word,
    labeled ""); every word x is joined to x+"0" and x+"1". Words of
    length N form the truncation frontier.
    """
    if c_const is None or not c_const > 0:
        raise ValueError("c_const must be > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    c_const = float(c_const)
    words = [""]
    for depth in range(1, N + 1):
        words.extend([w + b for w in words if len(w) == depth - 1 for b in "01"])
    index = {w: i for i, w in enumerate(words)}
    edges = tuple(
        (index[w[:-1]], index[w], c_const) for w in words if w
    )
    frontier = tuple(index[w] for w in words if len(w) == N)
    info = TruncationInfo(DYADIC_TREE, N, {"c_const": c_const}, frontier=frontier)
    return WeightedGraph(len(words), edges, base_vertex=0, labels=tuple(words),
                         truncation=info)


def path_graph(conductances: Sequence[float], base_vertex: int = 0) -> WeightedGraph:
    """Plain path 0--1--...--k with the given edge conductances."""
    edges = tuple((i, i + 1, float(c)) for i, c in enumerate(conductances))
    return WeightedGraph(len(conductances) + 1, edges, base_vertex=base_vertex)


# -- serialization: line-oriented text format ------------------------------
#    graph <V> <E> <base>
#    edge <x> <y> <c>      (c in round-trip decimal)
#    label <x> <string>

def write_graph(graph: WeightedGraph) -> str:
    lines = [f"graph {graph.n_vertices} {len(graph.edges)} {graph.base_vertex}"]
    for x, y, c in graph.edges:
        lines.append(f"edge {x} {y} {float(c)!r}")
    if graph.labels is not None:
        for i, lab in enumerate(graph.labels):
            lines.append(f"label {i} {lab}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> WeightedGraph:
    n_vertices = None
    base = 0
    edges = []
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 3)
        kind = parts[0]
        if kind not in ("graph", "edge", "label"):
            raise GraphStructureError(f"line {lineno}: unknown record {kind!r}")
        try:
            if kind == "graph":
                n_vertices, _n_edges, base = int(parts[1]), int(parts[2]), int(parts[3])
            elif kind == "edge":
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                labels[int(parts[1])] = parts[2] if len(parts) > 2 else ""
        except (ValueError, IndexError) as exc:
            raise GraphStructureError(f"line {lineno}: malformed {kind!r} record") from exc
    if n_vertices is None:
        raise GraphStructureError("missing 'graph' header line")
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(i, "") for i in range(n_vertices))
    return WeightedGraph(n_vertices, tuple(edges), base_vertex=base, labels=label_tuple)
