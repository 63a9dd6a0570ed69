"""Weighted graphs with positive edge conductances, and the model families.

A graph here is a finite vertex set {0, ..., V-1}, a set of unordered edges
carrying strictly positive conductances, and a distinguished base vertex.
The model constructors build finite truncations of one-sided and two-sided
geometric lines, the A-B two-sided line, and the binary (dyadic) tree; each
records which vertices sit on the truncation frontier so that analysis code
can restrict identities to interior vertices.

A graph holds its edges once, as three arrays (endpoints x, endpoints y,
conductances). Searches read its CSR view, three arrays with each vertex's
neighbours in edge order; the (x, y, c) records are built on demand. Every
builder numbers its graph parent-first, each vertex v >= 1 the larger end
of exactly one edge, the one to its parent, which is how the tree solve
reads its tree off the edge arrays. Labels may be a function of the vertex
index, made on first read; the heap-numbered tree's frontier is a range.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import islice
from typing import Optional, Sequence

import numpy as np

HALF_LINE_GEOM = "HALF_LINE_GEOM"
LINE_GEOM_SYM = "LINE_GEOM_SYM"
LINE_AB = "LINE_AB"
DYADIC_TREE = "DYADIC_TREE"


def record_dict(record, leave_out=()) -> dict:
    """A dataclass record's fields as {name: value}, less the names in leave_out.

    Every result record's to_dict() is built from this, so a field added
    to a record reaches its JSON without being listed a second time.
    """
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in leave_out}


class GraphStructureError(ValueError):
    """Malformed graph data (indices out of range, bad shapes).

    Distinct from axiom violations, which validate() reports rather than
    raises.
    """


@dataclass(frozen=True)
class TruncationInfo:
    """How a finite graph was cut out of its infinite model.

    family, depth N and params (the ratios, the half line's scale or
    c_const) are the model of a built graph; the graph records them once.
    """

    family: str
    depth: int
    params: dict = field(default_factory=dict, hash=False)   # a dict has no hash
    frontier: Sequence[int] = ()     # vertex indices
    # index of the vertex at model coordinate 0 (lines store coordinate
    # x at index x + offset)
    origin_offset: int = 0


class WeightedGraph:
    """Finite weighted graph: vertices 0..n_vertices-1, unordered edges.

    The edges are three columns of one length, `edge_arrays` = (x, y, c):
    integer endpoints and float conductances, one entry per unordered pair
    as the constructors in this module build them. validate() checks the
    axioms (positivity, no self-loops, single storage per pair,
    connectivity from the base vertex) without assuming them.

    Two views are built from the columns when first read: `csr`, each
    vertex's neighbours and conductances in edge order, and `edges`, the
    (x, y, c) records as Python ints and floats. labels, a tuple of str or
    a function of the vertex index, is a tuple when first read. Graphs are
    immutable and compare equal when their vertex counts, base vertices,
    truncations, labels and edge columns are equal; comparing or hashing
    builds no edge records, nor label tuples for two graphs that share
    their label function.
    """

    def __init__(self, n_vertices: int, edge_arrays: tuple, base_vertex: int = 0,
                 labels=None, truncation: Optional[TruncationInfo] = None):
        if n_vertices < 1:
            raise GraphStructureError("graph needs at least one vertex")
        if len(edge_arrays) != 3:
            raise GraphStructureError("edge arrays must be the three columns (x, y, c)")
        ex, ey, ec = edge_arrays = tuple(np.asarray(column) for column in edge_arrays)
        if ex.ndim != 1 or not ex.shape == ey.shape == ec.shape:
            raise GraphStructureError("edge arrays must be three 1-D arrays of one length")
        # three (x, y, c) records would otherwise pass as three columns
        if ex.dtype.kind not in "iu" or ey.dtype.kind not in "iu" or ec.dtype.kind != "f":
            raise GraphStructureError("edge arrays must hold integer endpoints and "
                                      "float conductances")
        self.__dict__.update(n_vertices=n_vertices, edge_arrays=edge_arrays,
                             base_vertex=base_vertex, _labels=labels, truncation=truncation)
        outside = (ex < 0) | (ex >= n_vertices) | (ey < 0) | (ey >= n_vertices)
        if outside.any():
            edge = tuple(column[outside][0].item() for column in edge_arrays)
            raise GraphStructureError(f"edge {edge!r} has vertex out of range")
        if not 0 <= base_vertex < n_vertices:
            raise GraphStructureError("base vertex out of range")
        if labels is not None and not callable(labels) and len(labels) != n_vertices:
            raise GraphStructureError("labels length must match vertex count")

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightedGraph is immutable (cannot set {name!r})")

    def __eq__(self, other):
        """Equal vertex counts, base vertices, truncations, labels and edge
        columns, compared as values: -0.0 == 0.0, a NaN conductance equals
        nothing (a graph is still equal to itself), int32 equals int64."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            (self.n_vertices, self.n_edges, self.base_vertex, self.truncation)
            == (other.n_vertices, other.n_edges, other.base_vertex, other.truncation)
            and (self._labels is other._labels or self.labels == other.labels)
            and all(map(np.array_equal, self.edge_arrays, other.edge_arrays)))

    def __hash__(self):
        return hash((self.n_vertices, self.n_edges, self.base_vertex, self.truncation))

    def __repr__(self):
        return (f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
                f"base_vertex={self.base_vertex})")

    @cached_property
    def labels(self):
        """The vertex labels, None or a tuple of str; a label function is called here."""
        labels = self._labels
        return tuple(map(labels, range(self.n_vertices))) if callable(labels) else labels

    @cached_property
    def csr(self):
        """(start, neighbours, conductances) as int64, int64 and float64 arrays.

        The slots start[x]:start[x+1] of the other two hold the edge ends at
        x, in the order of the edges; a self-loop fills two slots.
        """
        ex, ey, ec = self.edge_arrays
        # endpoints interleaved x0, y0, x1, y1, ...; a stable sort keeps each
        # vertex's slots in edge order
        ends = np.column_stack((ex, ey)).ravel()
        slots = np.argsort(ends, kind="stable")
        start = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n_vertices), out=start[1:])
        others = np.column_stack((ey, ex)).ravel()
        return (start, others[slots].astype(np.int64, copy=False),
                np.repeat(ec, 2)[slots].astype(np.float64, copy=False))

    @cached_property
    def vertex_weights(self):
        """c(x) = sum of conductances of edges at x, as a float array."""
        ex, ey, ec = self.edge_arrays
        # endpoints interleaved x0, y0, x1, y1, ...: the additions of a loop
        # over the edges, in the same order; with no edges bincount ignores
        # the weights and counts in int64, hence the cast
        weights = np.bincount(np.column_stack((ex, ey)).ravel(), weights=np.repeat(ec, 2),
                              minlength=self.n_vertices)
        return weights.astype(np.float64, copy=False)

    @cached_property
    def interior_mask(self):
        """True where the vertex keeps its full (untruncated) neighborhood."""
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[np.fromiter(self.truncation.frontier if self.truncation else (), np.int64)] = False
        return mask

    @cached_property
    def edges(self):
        """(x, y, c) records of the edge arrays, as Python ints and floats."""
        ex, ey, ec = self.edge_arrays
        return tuple(zip(ex.tolist(), ey.tolist(), ec.tolist()))

    @property
    def n_edges(self):
        return len(self.edge_arrays[0])

    def _hops(self, sources):
        """Hop distance from the nearest source, by breadth-first search (-1 if unreachable)."""
        start, neighbours = (a.tolist() for a in self.csr[:2])
        d = [-1] * self.n_vertices
        for v in sources:
            d[v] = 0
        queue = deque(sources)
        while queue:
            x = queue.popleft()
            for y in neighbours[start[x]:start[x + 1]]:
                if d[y] < 0:
                    d[y] = d[x] + 1
                    queue.append(y)
        return np.array(d, dtype=int)

    @cached_property
    def frontier_distance(self):
        """Hop distance to the nearest frontier vertex (n_vertices if none)."""
        d = self._hops(self.truncation.frontier if self.truncation is not None else ())
        d[d < 0] = self.n_vertices
        return d

    @cached_property
    def depths(self):
        """Hop distance from the base vertex (-1 if unreachable)."""
        return self._hops((self.base_vertex,))

    def conductance(self, x, y):
        """Conductance of the first edge joining x and y in edge order, 0.0 if none."""
        start, neighbours, conductances = self.csr
        at = np.flatnonzero(neighbours[start[x]:start[x + 1]] == y)
        return float(conductances[start[x] + at[0]]) if at.size else 0.0

    def index_of(self, position):
        """Vertex index of a model coordinate (the identity on the tree)."""
        if self.truncation is None:
            raise GraphStructureError("graph has no coordinate layout")
        return position + self.truncation.origin_offset


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
    pair stored more than once), "connectivity". Edge violations come in
    edge order: a self-loop is reported as such and nothing else, a
    repeated pair names the conductance of its first edge.
    """
    ex, ey, ec = graph.edge_arrays
    lo, hi = np.minimum(ex, ey), np.maximum(ex, ey)
    loop = ex == ey
    # a stable sort of the other edges by normalised pair starts each run
    # of one pair at its first edge in edge order
    order = np.flatnonzero(~loop)
    order = order[np.lexsort((hi[order], lo[order]))]
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = (lo[order[1:]] != lo[order[:-1]]) | (hi[order[1:]] != hi[order[:-1]])
    first = np.arange(len(ec))
    first[order] = order[np.maximum.accumulate(np.where(run_start, np.arange(len(order)), 0))]
    repeated = first != np.arange(len(ec))
    flagged = np.flatnonzero(loop | repeated | ~(ec > 0))
    violations = []
    for x, y, c, again, c_first in zip(ex[flagged].tolist(), ey[flagged].tolist(),
                                       ec[flagged].tolist(), repeated[flagged].tolist(),
                                       ec[first[flagged]].tolist()):
        if x == y:
            violations.append(("self_loop", f"edge ({x},{y}) is a self-loop"))
            continue
        key = (min(x, y), max(x, y))
        if again:
            violations.append(
                ("symmetry", f"pair {key} stored more than once (c={c_first!r}, c={c!r})")
            )
        if not c > 0:
            violations.append(("positivity", f"edge {key} has conductance {c!r} <= 0"))

    missing = np.flatnonzero(graph.depths < 0).tolist()
    if missing:
        violations.append(
            ("connectivity", f"vertices {missing} unreachable from base {graph.base_vertex}")
        )
    return ValidationReport(tuple(violations))


def _require_ratio(value, name):
    if value is None or not 1 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 1 (got {value!r}); "
                         "the geometric models assume it")


def _require_depth(n):
    if n < 2:
        raise ValueError(f"truncation depth N must be >= 2 (got {n})")


def _powers(ratio, N, name, scale=1.0):
    """[scale * ratio**n for n = 1..N].

    The largest vertex weight, the sum of the last two, must be a finite
    float: past that limit the builder raises ValueError.
    """
    ratio, scale = float(ratio), float(scale)
    try:
        powers = [scale * ratio ** n for n in range(1, N + 1)]
    except OverflowError:
        powers = [math.inf]
    if not math.isfinite(sum(powers[-2:])):
        raise ValueError(f"conductances {name}**n overflow at {name} = {ratio!r}, "
                         f"N = {N}: a vertex weight must stay below "
                         f"{sys.float_info.max:.4g}; lower N or {name}")
    return powers


def build_half_line(M: float, N: int, scale: float = 1.0) -> WeightedGraph:
    """One-sided line 0--1--...--N, conductance scale * M**n on edge (n-1, n)."""
    _require_ratio(M, "M")
    _require_depth(N)
    if not scale > 0:
        raise ValueError(f"scale must be > 0 (got {scale!r})")
    edges = (np.arange(N), np.arange(1, N + 1), np.array(_powers(M, N, "M", scale)))
    info = TruncationInfo(HALF_LINE_GEOM, N, {"M": float(M), "scale": float(scale)},
                          frontier=(N,))
    return WeightedGraph(N + 1, edges, base_vertex=0, truncation=info)


def build_sym_line(M: float, N: int) -> WeightedGraph:
    """Two-sided line -N..N, conductance M**|x| between |x|-1 and |x|.

    Vertex at coordinate x is stored at index x + N; the base vertex is
    coordinate 0. This is the A-B line with A = B = M.
    """
    return _two_sided_line(LINE_GEOM_SYM, N, ("M", M), ("M", M))


def build_ab_line(A: float, B: float, N: int) -> WeightedGraph:
    """Two-sided line with ratio A on the right half and B on the left."""
    return _two_sided_line(LINE_AB, N, ("A", A), ("B", B))


def _two_sided_line(family, N, right, left):
    """Line -N..N from the (name, ratio) of each side.

    Edge (x-1, x) on the right has conductance right**x, edge (-x, -x+1)
    on the left left**x; coordinate x is stored at index x + N. The edges
    alternate right, left, outward from the origin.
    """
    sides = (right, left)
    for name, ratio in sides:
        _require_ratio(ratio, name)
    _require_depth(N)
    n = np.arange(1, N + 1)
    right_c, left_c = (_powers(ratio, N, name) for name, ratio in sides)
    edges = tuple(np.column_stack(pair).ravel() for pair in
                  ((n - 1 + N, N - n), (n + N, N - n + 1), (right_c, left_c)))
    params = {name: float(ratio) for name, ratio in sides}
    info = TruncationInfo(family, N, params, frontier=(0, 2 * N), origin_offset=N)
    return WeightedGraph(2 * N + 1, edges, base_vertex=N, labels=lambda i: str(i - N),
                         truncation=info)


def build_dyadic_tree(c_const: float, N: int) -> WeightedGraph:
    """Binary tree of all bit-words of length <= N, constant conductance.

    Vertex i is numbered in heap order, children 2i+1 and 2i+2, and labeled
    by its bit-word bin(i + 1)[3:]; the last 2**N vertices, the words of
    length N, form the truncation frontier. The largest vertex weight,
    3 * c_const below the root (2 * c_const at N = 1), must be a finite
    float: past that limit the builder raises ValueError.
    """
    if c_const is None or not 0 < c_const < math.inf:
        raise ValueError(f"c_const must be finite and > 0 (got {c_const!r})")
    if N < 1:
        raise ValueError("N must be >= 1")
    c_const = float(c_const)
    if not math.isfinite((3 if N > 1 else 2) * c_const):
        raise ValueError(f"vertex weights overflow at c_const = {c_const!r}, N = {N}: "
                         f"a vertex weight must stay below {sys.float_info.max:.4g}; "
                         "lower c_const")
    n = 2 ** (N + 1) - 1
    child = np.arange(1, n)
    edges = ((child - 1) // 2, child, np.full(n - 1, c_const))
    info = TruncationInfo(DYADIC_TREE, N, {"c_const": c_const}, frontier=range(n - 2 ** N, n))
    return WeightedGraph(n, edges, labels=_heap_label, truncation=info)


def _heap_label(i):
    """The bit-word of heap vertex i: the digits of bin(i + 1) after the leading 1."""
    return bin(i + 1)[3:]


def path_graph(conductances: Sequence[float], base_vertex: int = 0) -> WeightedGraph:
    """Plain path 0--1--...--k with the given edge conductances."""
    k = len(conductances)
    edges = (np.arange(k), np.arange(1, k + 1), np.array(conductances, dtype=float))
    return WeightedGraph(k + 1, edges, base_vertex=base_vertex)


# -- serialization: line-oriented text format ------------------------------
#    graph <V> <E> <base>
#    edge <x> <y> <c>      (c in round-trip decimal)
#    label <x> <string>
#
# Files are read and written in chunks of lines: a reader holds the graph
# plus one chunk of lines, a writer the text formatted so far plus one
# chunk of records, never the whole file split into lines.

READ_CHUNK_CHARS = 2 ** 20    # a read chunk ends at the first "\n" this far in
WRITE_CHUNK_ROWS = 2 ** 14    # records formatted per write chunk


def read_chunks(text, start=0, end=None):
    """(index of its first line, its lines) for successive pieces of text[start:end].

    A piece ends right after the first "\n" at least READ_CHUNK_CHARS
    characters in. No line break is cut ("\r\n" ends at its "\n"), so the
    pieces' lines are exactly the lines of text[start:end].splitlines().
    """
    end = len(text) if end is None else end
    first = 0
    while start < end:
        cut = text.find("\n", start + READ_CHUNK_CHARS - 1, end)
        cut = end if cut < 0 else cut + 1
        lines = text[start:cut].splitlines()
        first, start = first + len(lines), cut
        yield first - len(lines), lines


def write_chunks(n_rows):
    """Slices of WRITE_CHUNK_ROWS rows covering rows 0..n_rows-1."""
    return [slice(k, k + WRITE_CHUNK_ROWS) for k in range(0, n_rows, WRITE_CHUNK_ROWS)]


# np.unique costs about as much as UNIQUE_MIN_REPEATS reprs when the caches
# are cold; float_texts calls it only when the repeats among the first
# REPEAT_SAMPLE values of a chunk predict at least that many in the chunk
REPEAT_SAMPLE = 2 ** 7
UNIQUE_MIN_REPEATS = 2 ** 8


def float_texts(values):
    """repr of each float in a float array, computed once per distinct value.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    texts, and every nan reads "nan". A chunk whose leading values repeat
    too little to pay for the search is formatted value by value.
    """
    floats = values.tolist()
    sample = floats[:REPEAT_SAMPLE]
    # -0.0 == 0.0 counts as a repeat here, and that only decides the method
    repeats = len(floats) * (len(sample) - len(set(sample))) // max(len(sample), 1)
    if repeats < UNIQUE_MIN_REPEATS:
        return [repr(v) for v in floats]
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [repr(v) for v in distinct.view(np.float64).tolist()]
    return [texts[k] for k in inverse.tolist()]


def format_rows(row, columns):
    """The text of row % (one entry of each column) for every row, by one % format."""
    n_rows = len(columns[0])
    args = [None] * (len(columns) * n_rows)
    for j, column in enumerate(columns):
        args[j::len(columns)] = column
    return (row * n_rows) % tuple(args)


def write_graph(graph: WeightedGraph) -> str:
    ex, ey, ec = graph.edge_arrays
    parts = [f"graph {graph.n_vertices} {len(ec)} {graph.base_vertex}\n"]
    for rows in write_chunks(len(ec)):
        parts.append(format_rows("edge %d %d %s\n", (ex[rows].tolist(), ey[rows].tolist(),
                                                      float_texts(ec[rows]))))
    if graph.labels is not None:
        for rows in write_chunks(graph.n_vertices):
            labels = graph.labels[rows]
            parts.append(format_rows("label %d %s\n",
                                     (range(rows.start, rows.start + len(labels)), labels)))
    return "".join(parts)


def parse_rows(rows, dtype, delimiter=None, usecols=None):
    """Text rows as a structured array, one bulk parse by numpy's text reader.

    A row the reader rejects raises ValueError; "" rows are skipped, so
    the table has fewer records than rows when there are any. Fields are
    split at the delimiter (whitespace when None); no comment or quote
    syntax is recognized.
    """
    if not any(rows):   # loadtxt warns on input with no data
        return np.zeros(0, dtype)
    return np.loadtxt(rows, dtype=dtype, delimiter=delimiter, usecols=usecols,
                      comments=None, ndmin=1)


def read_rows(rows, dtype, delimiter=None, usecols=None):
    """Parse text rows into a structured array with parse_rows.

    Returns (table, failed). When every row parses, table holds them all
    and failed is None. Otherwise failed is the index of the first row the
    reader rejects and table holds the rows before it: the one bulk parse
    raised, and a bisection over row prefixes located that row.
    """
    def parse(part):
        return parse_rows(part, dtype, delimiter, usecols)

    try:
        return parse(rows), None
    except ValueError:
        pass
    table, good, bad = parse([]), 0, len(rows)     # rows[:good] parse, rows[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            table, good = parse(rows[:mid]), mid
        except ValueError:
            bad = mid
    return table, good


# Each record keeps its kind word as a column, so loadtxt checks the number
# of fields; the word is compared after the parse. A field one character
# wider than the kind means a longer word never compares equal.
_HEADER_ROW = np.dtype([("kind", "U5"), ("V", np.int64), ("E", np.int64), ("base", np.int64)])
_EDGE_ROW = np.dtype([("kind", "U5"), ("x", np.int64), ("y", np.int64), ("c", np.float64)])
_LABEL_ROW = np.dtype([("kind", "U6"), ("vertex", np.int64)])


def _kind(line):
    return line.split(None, 1)[0]


def _outside(vertices, n_vertices):
    return (vertices < 0) | (vertices >= n_vertices)


def _first_fault(lines, heads, head, kind, table, failed, bad, describe):
    """(line index, message) of the first faulty record of one group, or None.

    The group is the lines whose first character is `head`, parsed into
    `table` by read_rows. A record is faulty when its kind is not `kind`,
    the reader rejected it (row `failed`), or the mask `bad` marks it;
    describe(record) words the last case.
    """
    marked = np.flatnonzero(bad | (table["kind"] != kind))
    row = int(marked[0]) if marked.size else failed
    if row is None:
        return None
    i = [i for i, h in enumerate(heads) if h == head][row]
    found = _kind(lines[i])
    if found != kind:
        return i, f"unknown record {found!r}"
    if row == failed:
        return i, f"malformed {kind!r} record"
    return i, describe(table[row].tolist())


def read_graph(text: str) -> WeightedGraph:
    """Parse the text format above; a label is the rest of its line, stripped.

    The header is the first record and the only one, its edge count must
    match the edge records, every edge joins two vertices of the graph with
    a finite conductance >= 0, and every label names a vertex of the graph.
    Each violation raises GraphStructureError with its line number, and the
    first faulty line is the one named. A negative conductance would make
    the energy form indefinite; a zero one (-0.0 too) adds nothing to it,
    like a missing edge, and is read. The numbers of all records are read
    by numpy's text reader, one chunk of lines at a time. The vertex
    weights are computed here, so a vertex count too large for memory
    fails while the graph is read, and a weight that is not a finite float
    is refused at the edge that takes it past the float range, as the
    model builders refuse it.
    """
    header, columns, labels = None, [], None
    for first, lines in read_chunks(text):
        if header is None:
            at = next((i for i, raw in enumerate(lines) if raw.lstrip()[:1] not in ("", "#")),
                      None)
            if at is None:
                continue
            header = first + at
            n_vertices, n_edges, base = _read_header(lines[at], header)
            first, lines = header + 1, lines[at + 1:]    # the lines after the header
        ex, ey, ec, label_vertices, texts = _read_records(first, lines, n_vertices, header)
        columns.append((ex, ey, ec))
        if texts:
            if labels is None:
                labels = [""] * n_vertices
            for vertex, label in zip(label_vertices.tolist(), texts):
                labels[vertex] = label
    if header is None:
        raise GraphStructureError("missing 'graph' header line")
    ex, ey, ec = (np.concatenate(column) for column in zip(*columns))
    if n_edges != len(ec):
        raise GraphStructureError(f"line {header + 1}: header declares {n_edges} edges, "
                                  f"the file has {len(ec)}")
    graph = WeightedGraph(n_vertices, (ex, ey, ec), base_vertex=base,
                          labels=None if labels is None else tuple(labels))
    # the per-vertex array, allocated while this file is read; its sums of
    # finite conductances >= 0 are all finite when the largest one is
    if not math.isfinite(graph.vertex_weights.max()):
        raise GraphStructureError(_weight_overflow(text, ex, ey, ec))
    return graph


def _weight_overflow(text, ex, ey, ec):
    """The message naming the first edge, in file order, at which the running
    weight of one of its ends stops being finite.

    The weights add the conductances in edge order, as vertex_weights does,
    and the conductances are finite and >= 0, so a weight that overflows
    stays infinite. Edge k is the k-th line whose first character past any
    indent is "e", as the reader groups them; the text is scanned again.
    """
    weights = {}
    for k, (x, y, c) in enumerate(zip(ex.tolist(), ey.tolist(), ec.tolist())):
        for vertex in (x, y):
            weights[vertex] = weights.get(vertex, 0.0) + c
        vertex = next((v for v in (x, y) if not math.isfinite(weights[v])), None)
        if vertex is not None:
            break
    edge_lines = (first + i for first, lines in read_chunks(text)
                  for i, raw in enumerate(lines) if raw.lstrip()[:1] == "e")
    line = next(islice(edge_lines, k, None)) + 1
    return (f"line {line}: edge ({x}, {y}) overflows the weight of vertex {vertex}: "
            f"a vertex weight must stay below {sys.float_info.max:.4g}")


def _read_header(line, header):
    """(V, E, base) of the header record, which is line index `header`."""
    kind = _kind(line)
    if kind != "graph":
        raise GraphStructureError(
            f"line {header + 1}: {kind!r} record before the 'graph' header")
    table, failed = read_rows([line], _HEADER_ROW)
    if failed is not None:
        raise GraphStructureError(f"line {header + 1}: malformed 'graph' record")
    return table[0].tolist()[1:]


def _read_records(first, lines, n_vertices, header):
    """Edge columns, label vertices and label texts of one chunk of lines.

    lines[0] is line index `first` of the file, and no line is the header.
    The first faulty record raises GraphStructureError.
    """
    # Records are grouped by the first character of their kind. Each group
    # is parsed in bulk with its kind word as a column, so a line such as
    # "eggs 1 2 3" in the edge group is still reported as an unknown record.
    heads = [raw[:1] for raw in lines]
    kinds = set(heads)
    if any(h.isspace() for h in kinds):     # an indented line: classify after the indent
        heads = [raw.lstrip()[:1] for raw in lines]
        kinds = set(heads)
    faults = []
    if kinds - {"", "#", "e", "l"}:
        i = next(i for i, h in enumerate(heads) if h not in {"", "#", "e", "l"})
        kind = _kind(lines[i])
        faults.append((i, f"second 'graph' header (the first is on line {header + 1})"
                       if kind == "graph" else f"unknown record {kind!r}"))

    def group(head):     # the lines whose first character is head
        if head not in kinds or kinds == {head}:
            return lines if head in kinds else []
        return [raw for raw, h in zip(lines, heads) if h == head]

    def edge_fault(record):
        _, x, y, c = record
        if not math.isfinite(c):
            return f"conductance {c!r} is not finite"
        if 0 <= x < n_vertices and 0 <= y < n_vertices:
            return f"edge ({x}, {y}) has conductance {c!r} < 0"
        return f"edge ({x}, {y}) has a vertex outside 0..{n_vertices - 1}"

    edge_table, failed = read_rows(group("e"), _EDGE_ROW)
    ex, ey, ec = (np.ascontiguousarray(edge_table[name]) for name in ("x", "y", "c"))
    bad = _outside(ex, n_vertices) | _outside(ey, n_vertices) | ~np.isfinite(ec) | (ec < 0)
    faults.append(_first_fault(lines, heads, "e", "edge", edge_table, failed, bad, edge_fault))

    label_rows = group("l")
    label_table, failed = read_rows(label_rows, _LABEL_ROW, usecols=(0, 1))
    label_vertices = label_table["vertex"]
    faults.append(_first_fault(
        lines, heads, "l", "label", label_table, failed, _outside(label_vertices, n_vertices),
        lambda record: f"label for vertex {record[1]}, outside 0..{n_vertices - 1}"))

    faults = [fault for fault in faults if fault is not None]
    if faults:
        i, message = min(faults)
        raise GraphStructureError(f"line {first + i + 1}: {message}")
    texts = [w[2].rstrip() if len(w := raw.split(None, 2)) > 2 else "" for raw in label_rows]
    return ex, ey, ec, label_vertices, texts
