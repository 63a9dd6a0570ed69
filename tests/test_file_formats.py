"""The bulk graph and vector readers against the per-line loops they replaced.

`reference_read_graph` and `reference_read_vector` are those loops, kept
as the specification. On every input the references accept, the readers
must return the same edges, labels, base vertex and values, bit for bit;
on every input they reject, the readers must reject it too, naming the
same line or row. Inputs whose numbers only Python's `int`/`float`
accept (digit-group underscores, non-ASCII digits) and non-finite
numbers are rejected on purpose, naming their line.

Files are read and written in chunks of lines. Each check also runs with
chunks a few characters or rows long, so that records sit at every cut.
"""

import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from resistnet import graphs
from resistnet.energy import EnergyVector, read_vector, write_vector
from resistnet.graphs import (GraphStructureError, build_dyadic_tree, path_graph, read_chunks,
                              read_graph, write_graph)

from graph_oracles import graph_from_records

TINY_READ_CHUNKS = (1, 2, 3, 5, 13)
TINY_WRITE_CHUNKS = (1, 2, 3)


@pytest.fixture
def in_tiny_chunks(monkeypatch):
    """Run check(*args) once for each tiny read chunk size."""
    def run(check, *args):
        for chars in TINY_READ_CHUNKS:
            monkeypatch.setattr(graphs, "READ_CHUNK_CHARS", chars)
            check(*args)
    return run


def reference_read_graph(text):
    lines = enumerate(text.splitlines(), 1)
    for header_line, raw in lines:
        parts = raw.split(None, 3)
        if parts and not parts[0].startswith("#"):
            break
    else:
        raise GraphStructureError("missing 'graph' header line")
    if parts[0] != "graph":
        raise GraphStructureError(
            f"line {header_line}: {parts[0]!r} record before the 'graph' header")
    try:
        n_vertices, n_edges, base = int(parts[1]), int(parts[2]), int(parts[3])
    except (ValueError, IndexError) as exc:
        raise GraphStructureError(f"line {header_line}: malformed 'graph' record") from exc
    edges, edge_lines = [], []
    labels = {}
    for lineno, raw in lines:
        parts = raw.split(None, 3)
        if not parts or parts[0].startswith("#"):
            continue
        kind = parts[0]
        try:
            if kind == "edge":
                x, y, c = int(parts[1]), int(parts[2]), float(parts[3])
                # a vertex outside the graph is reported after the loop
                if c < 0 and 0 <= x < n_vertices and 0 <= y < n_vertices:
                    raise GraphStructureError(
                        f"line {lineno}: edge ({x}, {y}) has conductance {c!r} < 0")
                edges.append((x, y, c))
                edge_lines.append(lineno)
            elif kind == "label":
                vertex = int(parts[1])
                if not 0 <= vertex < n_vertices:
                    raise GraphStructureError(f"line {lineno}: label for vertex {vertex}, "
                                              f"outside 0..{n_vertices - 1}")
                label = parts[2] if len(parts) > 2 else ""
                if len(parts) == 4:
                    label = raw.split(None, 2)[2].rstrip()
                labels[vertex] = label
            elif kind == "graph":
                raise GraphStructureError(f"line {lineno}: second 'graph' header "
                                          f"(the first is on line {header_line})")
            else:
                raise GraphStructureError(f"line {lineno}: unknown record {kind!r}")
        except GraphStructureError:
            raise
        except (ValueError, IndexError) as exc:
            raise GraphStructureError(f"line {lineno}: malformed {kind!r} record") from exc
    if n_edges != len(edges):
        raise GraphStructureError(f"line {header_line}: header declares {n_edges} edges, "
                                  f"the file has {len(edges)}")
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(i, "") for i in range(n_vertices))
    for e in edges:
        if not (0 <= e[0] < n_vertices and 0 <= e[1] < n_vertices):
            raise GraphStructureError(f"edge {e!r} has vertex out of range")
    # each vertex weight, the sum of its edges' conductances, must be a finite float
    weights = [0.0] * n_vertices
    for (x, y, c), lineno in zip(edges, edge_lines):
        for vertex in (x, y):
            weights[vertex] += c
        for vertex in (x, y):
            if weights[vertex] == float("inf"):
                raise GraphStructureError(
                    f"line {lineno}: edge ({x}, {y}) overflows the weight of vertex {vertex}: "
                    f"a vertex weight must stay below {sys.float_info.max:.4g}")
    return graph_from_records(n_vertices, edges, base_vertex=base, labels=label_tuple)


def reference_read_vector(n_vertices, text):
    values = np.zeros(n_vertices)
    rows = text.strip().splitlines()
    if rows and rows[0].strip().lower() == "vertex,value":
        rows = rows[1:]
    for row in rows:
        if not row.strip():
            continue
        try:
            i_str, v_str = row.split(",", 1)
            i, v = int(i_str), float(v_str)
        except ValueError as exc:
            raise ValueError(f"malformed vector row {row!r}") from exc
        if not 0 <= i < n_vertices:
            raise ValueError(f"vector row {row!r}: vertex {i} is outside "
                             f"0..{n_vertices - 1}")
        values[i] = v
    return values


def _bits(graph):
    """Everything read_graph returns, with each conductance as its exact bits."""
    edges = [(type(x), x, type(y), y, type(c), c.hex()) for x, y, c in graph.edges]
    return graph.n_vertices, edges, graph.base_vertex, graph.labels


GRAPHS_ACCEPTED = {
    "plain": "graph 3 2 0\nedge 0 1 1.0\nedge 1 2 0.5\n",
    "no-edges": "graph 1 0 0\n",
    "comments-blanks-indent": (
        "# leading comment\n\n   \n  graph 3 2 1\n#edge 0 1 9.0\n"
        "   edge 0 1 1.0\n\t# tabbed comment\n\nedge 1 2 2.0   \n"),
    "tabs": "graph\t3\t2\t0\nedge\t0\t1\t1.0\n\tedge 1\t\t2 \t 3.0\t\n",
    "crlf": "graph 3 2 0\r\nedge 0 1 1.0\r\nedge 1 2 2.0\r\nlabel 1 mid\r\n",
    "crlf-no-final-newline": (
        "\r\n# c\r\ngraph 3 2 0\r\nedge 0 1 1.0\r\nedge 1 2 2.0\r\nlabel 1 mid"),
    "no-final-newline": "graph 3 2 0\nlabel 2 end\nedge 0 1 1.0\nedge 1 2 2.0",
    "lone-cr-and-form-feed": "graph 3 2 0\redge 0 1 1.0\x0cedge 1 2 2.0\n",
    "unicode-whitespace": "graph\xa02 1 0\nedge 0\u30001\x1f1.0\nlabel 1 x\xa0\n",
    "numbers": (
        "graph 8 7 +0\n"
        "edge 0 1 1e0\nedge 1 2 2.5E-3\nedge 2 3 -0.0\nedge 3 4 4.9406564584124654e-324\n"
        "edge 4 5 0.30000000000000004\nedge +5 6 +7\nedge 6 -0 1.7976931348623157e308\n"),
    "more-numbers": (
        "graph 4 5 0\nedge 0 1 .5\nedge 1 2 2.\nedge 2 3 1E+05\n"
        "edge 0 3 2.2250738585072014e-308\nedge 0 2 0.1000000000000000055511151231257827\n"),
    "labels": (
        "graph 5 1 0\nedge 0 1 1.0\nlabel 0 root vertex\nlabel 1\nlabel\t2\tleft  arm, far\t\n"
        "label 3 x\n# vertex 4 has no label\n"),
    "duplicate-label": "graph 2 1 0\nlabel 1 first\nedge 0 1 1.0\nlabel 1 second\n",
    "label-then-empty": "graph 2 1 0\nedge 0 1 1.0\nlabel 1 first\nlabel 1\n",
    "labels-before-edges": "graph 3 2 2\nlabel 2 top\nlabel 0 a b\nedge 0 1 1.0\nedge 1 2 3.0\n",
    "zero-conductance": "graph 3 2 0\nedge 0 1 0\nedge 1 2 -0.0\n",
    "self-loop-and-repeat": "graph 2 3 0\nedge 0 0 1.0\nedge 0 1 1.0\nedge 1 0 2.0\n",
}

GRAPHS_REJECTED = {
    "empty": "",
    "only-comments": "# nothing\n\n",
    "record-before-header": "# c\nlabel 0 root\ngraph 1 0 0\n",
    "edge-before-header": "edge 0 1 1.0\ngraph 2 1 0\n",
    "short-header": "graph 2\nedge 0 1 1.0\n",
    "long-header": "graph 2 1 0 9\nedge 0 1 1.0\n",
    "bad-header-number": "graph two 1 0\nedge 0 1 1.0\n",
    "float-header": "graph 2.0 1 0\nedge 0 1 1.0\n",
    "second-header": "graph 2 1 0\nedge 0 1 1.0\n\ngraph 3 1 0\n",
    "unknown-record": "graph 2 1 0\nwible 0 1\n",
    "unknown-e-record": "graph 2 1 0\neggs 0 1 1.0\nedge 0 1 1.0\n",
    "unknown-l-record": "graph 2 1 0\nedge 0 1 1.0\nlabels 0 x\n",
    "bare-e": "graph 2 1 0\ne 0 1 1.0\n",
    "short-edge": "graph 2 1 0\nedge 0 1\n",
    "long-edge": "graph 2 1 0\nedge 0 1 1.0 2.0\n",
    "edge-trailing-comment": "graph 2 1 0\nedge 0 1 1.0 # c\n",
    "edge-glued-comment": "graph 2 1 0\nedge 0 1 1.0#c\n",
    "edge-word": "graph 2 1 0\nedge 0 one 1.0\n",
    "edge-float-vertex": "graph 2 1 0\nedge 0 1.0 1.0\n",
    "edge-hex": "graph 2 1 0\nedge 0 1 0x10\n",
    "edge-comma": "graph 2 1 0\nedge 0 1 1,5\n",
    "bare-label": "graph 2 1 0\nedge 0 1 1.0\nlabel\n",
    "label-word-vertex": "graph 2 1 0\nedge 0 1 1.0\nlabel x y\n",
    "label-past-end": "graph 2 1 0\nedge 0 1 1.0\nlabel 9 far\n",
    "label-negative": "graph 2 1 0\nlabel -1 neg\nedge 0 1 1.0\n",
    "edge-count": "graph 3 7 0\nedge 0 1 1.0\nedge 1 2 1.0\n",
    "no-vertices": "graph 0 0 0\n",
    "base-out-of-range": "graph 2 1 5\nedge 0 1 1.0\n",
    "edge-vertex-out-of-range": "graph 2 1 0\nedge 0 5 1.0\n",
    "edge-vertex-negative": "graph 2 1 0\nedge -1 1 1.0\n",
    "edge-vertex-huge": "graph 2 1 0\nedge 99999999999999999999 1 1.0\n",
    "negative-conductance": "graph 3 2 0\nedge 0 1 -1.0\nedge 1 2 0\n",
    "negative-subnormal-conductance": "graph 3 3 0\nedge 0 1 0\nedge 1 2 -0.0\nedge 2 0 -5e-324\n",
    # c(1) = 1e308 + 1e308 is not a finite float
    "vertex-weight-overflow": "graph 3 2 0\nedge 0 1 1e308\nedge 1 2 1e308\n",
    "self-loop-weight-overflow": "# c\n\ngraph 2 2 0\nedge 0 1 1.0\n  edge 1 1 1e308\n",
    "weight-overflow-after-labels": (
        "graph 4 5 0\nlabel 0 a\nedge 0 1 1e308\nedge 2 3 1e308\nlabel 1 b\n"
        "edge 3 3 0\nedge 3 0 7e307\nedge 1 2 1e308\n"),
    # a later malformed line is named before the weight that overflows
    "weight-overflow-before-malformed": "graph 3 3 0\nedge 0 1 1e308\nedge 1 2 1e308\nedge x\n",
    # the first faulty line is reported, whatever the kinds of the later ones
    "label-fault-before-edge-fault": (
        "graph 2 2 0\nedge 0 1 1.0\nlabel 9 far\nedge 0 x 1.0\n"),
    "edge-fault-before-label-fault": (
        "graph 2 2 0\nedge 0 x 1.0\nlabel 9 far\nedge 0 1 1.0\n"),
    "unknown-before-label-fault": "graph 2 1 0\nedge 0 1 1.0\nnode 3\nlabel 9 far\n",
    "malformed-before-negative": "graph 3 2 0\nedge 0 x 1.0\nedge 1 2 -1.0\n",
    "negative-before-malformed": "graph 3 2 0\nedge 1 2 -1.0\nedge 0 x 1.0\n",
    "label-fault-before-negative": "graph 3 1 0\nlabel 9 far\nedge 0 1 -1.0\n",
    "crlf-fault-on-last-line": "graph 2 1 0\r\nedge 0 1 1.0\r\n\r\nlabel 9 far",
    "crlf-edge-count": "graph 3 7 0\r\nedge 0 1 1.0\r\nedge 1 2 1.0",
    "fault-deep-in-many-edges": (
        "graph 50 49 0\n" + "".join(f"edge {i} {i + 1} 1.0\n" for i in range(30))
        + "edge 30 31 1.0.0\n" + "".join(f"edge {i} {i + 1} 1.0\n" for i in range(31, 49))),
}


def _graph_matches(text):
    expected = reference_read_graph(text)
    got = read_graph(text)
    assert _bits(got) == _bits(expected)
    assert got == expected


def _graph_rejected(text):
    with pytest.raises(GraphStructureError) as expected:
        reference_read_graph(text)
    with pytest.raises(GraphStructureError) as got:
        read_graph(text)
    named = re.match(r"line \d+:", str(expected.value))
    if named:
        # the same line and, for the faults the reference knows, the same words
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("text", GRAPHS_ACCEPTED.values(), ids=GRAPHS_ACCEPTED.keys())
def test_read_graph_matches_the_reference(text):
    _graph_matches(text)


@pytest.mark.parametrize("text", GRAPHS_ACCEPTED.values(), ids=GRAPHS_ACCEPTED.keys())
def test_read_graph_in_tiny_chunks_matches_the_reference(text, in_tiny_chunks):
    in_tiny_chunks(_graph_matches, text)


@pytest.mark.parametrize("text", GRAPHS_REJECTED.values(), ids=GRAPHS_REJECTED.keys())
def test_read_graph_rejects_what_the_reference_rejects(text):
    _graph_rejected(text)


@pytest.mark.parametrize("text", GRAPHS_REJECTED.values(), ids=GRAPHS_REJECTED.keys())
def test_read_graph_in_tiny_chunks_rejects_what_the_reference_rejects(text, in_tiny_chunks):
    in_tiny_chunks(_graph_rejected, text)


@pytest.mark.parametrize("text,lineno", [
    ("graph 2 1 0\nedge 0 1 nan\n", 2),
    ("graph 2 1 0\nedge 0 1 inf\n", 2),
    ("graph 2 1 0\n\nedge 0 1 -Infinity\n", 3),
    ("graph 2 1 0\nedge 0 1 1e400\n", 2),
    ("graph 1_0 1 0\nedge 0 1 1.0\n", 1),
    ("graph 2 1 0\nedge 0 1_0 1.0\n", 2),
    ("graph 2 1 0\nedge 0 1 1_0.5\n", 2),
    ("graph 2 1 0\nedge 0 １ 1.0\n", 2),
    ("graph 2 1 0\nedge 0 1 ١.5\n", 2),
    ("graph 2 1 0\nedge 0 1 1.0\nlabel ١ x\n", 3),
], ids=["nan", "inf", "-Infinity", "overflow", "underscore-header", "underscore-vertex",
        "underscore-conductance", "fullwidth-digit", "arabic-indic-digit", "label-digit"])
def test_read_graph_rejects_numbers_python_alone_accepts(text, lineno):
    with pytest.raises(GraphStructureError, match=f"^line {lineno}: "):
        read_graph(text)


def _random_graph_text(rng):
    """A graph file in one of the many spellings the reader accepts.

    In about half of the files the conductances take both signs, so the
    file is refused at its first negative one.
    """
    n = int(rng.integers(1, 12))
    signs = [1, -1] if rng.random() < 0.5 else [1]
    edges = [(int(rng.integers(n)), int(rng.integers(n)),
              float(rng.choice([1.0, -0.0, 5e-324, 1e-310, 0.1 + 0.2, 1e300]))
              * float(rng.choice(signs)) * float(10.0 ** rng.integers(-5, 5)))
             for _ in range(int(rng.integers(0, 15)))]
    floats = [repr, "{:.17g}".format, "{:.20e}".format, "{:+.17E}".format,
              lambda c: repr(c) if repr(c).startswith("-") else "+" + repr(c)]
    ints = [str, lambda i: "+" + str(i), lambda i: "-0" if i == 0 else str(i)]
    seps = [" ", "\t", "  ", " \t "]

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def record(*words):
        sep = pick(seps)
        return pick(["", " ", "\t"]) + sep.join(words) + pick(["", " ", "\t "])

    body = [record("edge", pick(ints)(x), pick(ints)(y), pick(floats)(c)) for x, y, c in edges]
    for _ in range(int(rng.integers(0, 2 * n))):
        words = pick(["", "a", "left arm", "w\tx  y", "#notcomment", "edge 0 1 1.0"])
        body.append(record("label", pick(ints)(int(rng.integers(n))), *([words] if words else [])))
    for _ in range(int(rng.integers(0, 4))):
        body.append(pick(["", "   ", "# comment", "\t#edge 0 1 1.0", "#"]))
    order = rng.permutation(len(body))
    lines = [pick(["", "# head"])] + [record("graph", pick(ints)(n), pick(ints)(len(edges)),
                                             pick(ints)(int(rng.integers(n))))]
    lines += [body[i] for i in order]
    return pick(["\n", "\r\n"]).join(lines) + pick(["", "\n"])


def _graph_agrees(text):
    """_graph_matches if the reference reads text, else _graph_rejected."""
    try:
        reference_read_graph(text)
    except GraphStructureError:
        _graph_rejected(text)
    else:
        _graph_matches(text)


@pytest.mark.parametrize("seed", range(40))
def test_read_graph_matches_the_reference_on_random_spellings(seed):
    _graph_agrees(_random_graph_text(np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", range(40))
def test_read_graph_in_tiny_chunks_matches_the_reference_on_random_spellings(
        seed, in_tiny_chunks):
    in_tiny_chunks(_graph_agrees, _random_graph_text(np.random.default_rng(seed)))


def test_random_spellings_are_read_and_refused():
    texts = [_random_graph_text(np.random.default_rng(seed)) for seed in range(40)]
    refused = 0
    for text in texts:
        try:
            reference_read_graph(text)
        except GraphStructureError as exc:
            assert re.fullmatch(r"line \d+: edge \(\d+, \d+\) has conductance -\S+ < 0", str(exc))
            refused += 1
    assert 10 <= refused <= 30


def test_negative_conductance_past_the_first_chunk_names_its_line():
    # about 1.3 MB of edges: the negative one, on line 100,002, is read in a
    # later chunk than the header
    edges = ["edge 0 1 1.0\n"] * 100_000 + ["edge 1 0 -2.0\n"] + ["edge 0 1 0.5\n"] * 9_999
    text = "graph 2 110000 0\n" + "".join(edges)
    assert len(text) > 1.2 * graphs.READ_CHUNK_CHARS
    message = "line 100002: edge (1, 0) has conductance -2.0 < 0"
    with pytest.raises(GraphStructureError) as got:
        read_graph(text)
    assert str(got.value) == message
    with pytest.raises(GraphStructureError) as expected:
        reference_read_graph(text)
    assert str(expected.value) == message


VECTORS_ACCEPTED = {
    "plain": "vertex,value\n0,1.0\n1,2.0\n2,3.0\n",
    "no-header": "0,1.0\n2,3.0\n",
    "upper-case-header": "\n\n  VERTEX,Value  \n0,1.5\n",
    "blank-rows": "vertex,value\n\n0,1.0\n   \n\t\n1,2.0\n\n",
    "empty-rows-only": "vertex,value\n0,1.0\n\n\n1,2.0\n\n2,3.0\n",
    "whitespace-rows-only": "0,1.0\n \n1,2.0\n\t\xa0\n2,3.0\n",
    "whitespace-and-tabs": "vertex,value\n 0 , 1.0 \n1\t,\t2.0\n\t2,3.0\t\n",
    "crlf": "vertex,value\r\n0,1.0\r\n1,2.0\r\n",
    "crlf-no-final-newline": "\r\n \r\n vertex,value\r\n0,1.0\r\n\r\n1,2.0",
    "no-final-newline": "0,1.0\n1,2.0",
    "unicode-whitespace": "vertex,value\n0,\xa01.5\n\u30001\u3000,2.0\n",
    "numbers": ("vertex,value\n0,+1e0\n1,-0.0\n2,4.9406564584124654e-324\n"
                "3,0.30000000000000004\n4,2.5E-3\n5,.5\n6,1.7976931348623157e308\n"),
    "duplicates-last-wins": "vertex,value\n1,1.0\n2,5.0\n1,-2.0\n1,3.0\n",
    "missing-rows-are-zero": "vertex,value\n6,1.0\n",
    "header-only": "vertex,value\n",
    "empty": "",
}

VECTORS_REJECTED = {
    "semicolon": "vertex,value\n0;1.0\n",
    "word-value": "vertex,value\n0,one\n",
    "past-end": "vertex,value\n7,1.0\n",
    "negative-vertex": "vertex,value\n-1,1.0\n",
    "three-fields": "vertex,value\n0,1.0,2\n",
    "empty-value": "vertex,value\n0,\n",
    "empty-vertex": "vertex,value\n,1.0\n",
    "float-vertex": "vertex,value\n1.0,1.0\n",
    "spaced-header": "vertex, value\n0,1.0\n",
    "comment": "vertex,value\n# c\n0,1.0\n",
    "range-before-malformed": "vertex,value\n0,1.0\n9,1.0\n1;2\n",
    "malformed-before-range": "vertex,value\n0,1.0\n1;2\n9,1.0\n",
    "header-twice": "vertex,value\nvertex,value\n0,1.0\n",
    # text.strip() takes the spaces around the first and the last row
    "spaces-before-first-row": "\n  \n \t0;1.0\n1,2.0\n",
    "spaces-after-last-row": "vertex,value\r\n0,1.0\r\n1;2 \t\r\n \r\n",
    "crlf-fault-on-last-line": "vertex,value\r\n0,1.0\r\n9,1.0",
    # blank rows before the fault: the row named is the faulty one
    "empty-rows-then-range": "vertex,value\n\n0,1.0\n\n\n9,1.0\n1,2.0\n",
    "empty-rows-then-malformed": "vertex,value\n0,1.0\n\n1;2\n\n3,1.0\n",
    "whitespace-rows-then-range": "vertex,value\n0,1.0\n  \n-2,1.0\n",
    "whitespace-rows-then-malformed": "vertex,value\n\t\n0,1.0\n \n0,one\n",
    "both-blank-rows-then-range": "vertex,value\n\n0,1.0\n\t\n\n7,1.0\n",
}


def _vector_matches(text, n=7):
    graph = path_graph([1.0] * (n - 1))
    expected = reference_read_vector(graph.n_vertices, text)
    assert read_vector(graph, text).values.tobytes() == expected.tobytes()


def _vector_rejected(text):
    graph = path_graph([1.0] * 6)
    with pytest.raises(ValueError) as expected:
        reference_read_vector(graph.n_vertices, text)
    with pytest.raises(ValueError) as got:
        read_vector(graph, text)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("text", VECTORS_ACCEPTED.values(), ids=VECTORS_ACCEPTED.keys())
def test_read_vector_matches_the_reference(text):
    _vector_matches(text)


@pytest.mark.parametrize("text", VECTORS_ACCEPTED.values(), ids=VECTORS_ACCEPTED.keys())
def test_read_vector_in_tiny_chunks_matches_the_reference(text, in_tiny_chunks):
    in_tiny_chunks(_vector_matches, text)


@pytest.mark.parametrize("text", VECTORS_REJECTED.values(), ids=VECTORS_REJECTED.keys())
def test_read_vector_rejects_what_the_reference_rejects(text):
    _vector_rejected(text)


@pytest.mark.parametrize("text", VECTORS_REJECTED.values(), ids=VECTORS_REJECTED.keys())
def test_read_vector_in_tiny_chunks_rejects_what_the_reference_rejects(text, in_tiny_chunks):
    in_tiny_chunks(_vector_rejected, text)


@pytest.mark.parametrize("row", [
    "0,nan", "0,-inf", "0,Infinity", "0,1e400", "1_0,1.0", "0,1_0.5", "１,1.0",
    "0,١.5",
])
def test_read_vector_rejects_numbers_python_alone_accepts(row):
    graph = path_graph([1.0] * 20)
    text = f"vertex,value\n0,1.0\n{row}\n1,2.0\n"
    with pytest.raises(ValueError, match=re.escape(repr(row))):
        read_vector(graph, text)


def _random_vector_text(rng, n):
    """A vector file for n vertices in one of the spellings the reader accepts."""
    rows = []
    for _ in range(int(rng.integers(0, 20))):
        i, v = int(rng.integers(n)), float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
        form = ["{},{!r}", " {} , {!r} ", "{}\t,{:.17e}", "+{},{:+.20g}"][int(rng.integers(4))]
        rows.append(form.format(i, v))
        if rng.random() < 0.2:
            rows.append(["", "  ", "\t"][int(rng.integers(3))])
    header = ["vertex,value", "Vertex,Value", ""][int(rng.integers(3))]
    return ["\n", "\r\n"][int(rng.integers(2))].join([header, *rows]) + "\n"


@pytest.mark.parametrize("seed", range(20))
def test_read_vector_matches_the_reference_on_random_spellings(seed):
    _vector_matches(_random_vector_text(np.random.default_rng(seed), 9), 9)


@pytest.mark.parametrize("seed", range(20))
def test_read_vector_in_tiny_chunks_matches_the_reference_on_random_spellings(
        seed, in_tiny_chunks):
    in_tiny_chunks(_vector_matches, _random_vector_text(np.random.default_rng(seed), 9), 9)


def test_read_rows_of_empty_rows_is_an_empty_table_without_a_warning():
    dtype = np.dtype([("vertex", np.int64), ("value", np.float64)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, failed = graphs.read_rows(["", ""], dtype, delimiter=",")
    assert failed is None and table.dtype == dtype and len(table) == 0


def test_edges_built_from_arrays_keep_their_record_form():
    text = "graph 3 2 0\nedge 0 1 1.5\nedge 2 1 -0.0\n"
    graph = read_graph(text)
    assert graph.edges == ((0, 1, 1.5), (2, 1, -0.0))
    assert [type(v) for e in graph.edges for v in e] == [int, int, float] * 2
    assert graph == graph_from_records(3, ((0, 1, 1.5), (2, 1, 0.0)))
    assert graph.n_edges == 2


@pytest.mark.parametrize("chars", TINY_READ_CHUNKS + (64,))
def test_read_chunks_cut_only_after_a_newline(chars, monkeypatch):
    monkeypatch.setattr(graphs, "READ_CHUNK_CHARS", chars)
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", "\n\n", "\r\n\r\n"]
    rng = np.random.default_rng(chars)
    for _ in range(50):
        words = ["".join(rng.choice(list("ab \t"), int(rng.integers(0, 6))))
                 for _ in range(int(rng.integers(0, 12)))]
        text = "".join(w + breaks[int(rng.integers(len(breaks)))] for w in words)
        text += "tail" if rng.random() < 0.5 else ""
        for start, end in [(0, None), (1, len(text) - 1)]:
            chunks = list(read_chunks(text, start, end))
            assert [line for _, lines in chunks for line in lines] == \
                text[start:end].splitlines()
            ends = np.cumsum([len(lines) for _, lines in chunks], dtype=int).tolist()
            assert [first for first, _ in chunks] == ([0] + ends)[:len(chunks)]
    assert len(list(read_chunks("a\nb\nc\n"))) == (3 if chars <= 2 else 2 if chars <= 4 else 1)


def reference_write_graph(graph):
    lines = [f"graph {graph.n_vertices} {len(graph.edges)} {graph.base_vertex}"]
    lines += [f"edge {x} {y} {c!r}" for x, y, c in graph.edges]
    if graph.labels is not None:
        lines += [f"label {i} {lab}" for i, lab in enumerate(graph.labels)]
    return "\n".join(lines) + "\n"


def reference_write_vector(values):
    return "vertex,value\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(values))


@pytest.mark.parametrize("rows", TINY_WRITE_CHUNKS)
def test_writers_in_tiny_chunks_match_the_reference(rows, monkeypatch):
    monkeypatch.setattr(graphs, "WRITE_CHUNK_ROWS", rows)
    for graph in [build_dyadic_tree(0.5, 3), path_graph([1.0, -0.0, 5e-324, 0.1 + 0.2]),
                  read_graph("graph 1 0 0\n"),
                  read_graph("graph 3 1 2\nedge 2 0 1e300\nlabel 1 a b\n")]:
        assert write_graph(graph) == reference_write_graph(graph)
        values = np.linspace(-1.0, 2.0, graph.n_vertices) ** 3
        assert write_vector(EnergyVector(graph, values)) == reference_write_vector(values)


def test_files_of_a_large_tree_round_trip_across_chunks():
    tree = build_dyadic_tree(1.0, 16)    # 2**17 - 1 vertices
    text = write_graph(tree)
    assert len(text) > 4 * graphs.READ_CHUNK_CHARS
    assert tree.n_edges > 4 * graphs.WRITE_CHUNK_ROWS
    assert text == reference_write_graph(tree)
    assert write_graph(read_graph(text)) == text
    rng = np.random.default_rng(5)
    values = rng.standard_normal(tree.n_vertices) * 10.0 ** rng.integers(-300, 300, tree.n_vertices)
    csv = write_vector(EnergyVector(tree, values))
    assert len(csv) > 2 * graphs.READ_CHUNK_CHARS
    assert csv == reference_write_vector(values)
    assert write_vector(read_vector(tree, csv)) == csv


def test_reading_and_writing_a_graph_hold_one_chunk_not_the_whole_file():
    text = write_graph(build_dyadic_tree(1.0, 14))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graph = read_graph(text)
        kept, read_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = write_graph(graph)
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == text
    # the file split into lines costs several times what the graph keeps
    assert read_peak - start <= 3 * (kept - start)
    assert write_peak - kept <= 3 * sys.getsizeof(out)


# Floats whose text is easy to get wrong when each distinct value is
# formatted once: signed zeros and nans of either sign or payload share a
# value or a text but not their bits; the rest are extremes of the range.
SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), -float("nan"),
                  float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]),
                  5e-324, -5e-324, -1e+16, 1e16, 0.1 + 0.2, float("inf"), -float("inf"),
                  1.7976931348623157e308]


def test_float_texts_tell_values_apart_by_their_bits():
    short = [0.0, -0.0, 0.0, float("nan"), -float("nan")]
    assert graphs.float_texts(np.array(short)) == ["0.0", "-0.0", "0.0", "nan", "nan"]
    # long enough that its repeats send it through np.unique
    long = np.tile(SPECIAL_FLOATS, 4 * graphs.UNIQUE_MIN_REPEATS)
    assert graphs.float_texts(long) == [repr(v) for v in long.tolist()]


@pytest.mark.parametrize("rows", (None,) + TINY_WRITE_CHUNKS)
def test_writers_match_the_reference_on_special_and_repeated_floats(rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(graphs, "WRITE_CHUNK_ROWS", rows)
    rng = np.random.default_rng(8)
    n = 2 * graphs.WRITE_CHUNK_ROWS + 3
    # every value of a small pool recurs on both sides of each chunk boundary
    repeated = np.array(SPECIAL_FLOATS)[rng.integers(0, len(SPECIAL_FLOATS), n)]
    for values in (np.array(SPECIAL_FLOATS), np.full(n, 0.1 + 0.2), np.full(n, -0.0), repeated):
        graph = path_graph(np.zeros(len(values) - 1))
        assert write_vector(EnergyVector(graph, values)) == reference_write_vector(values)
        chain = graph_from_records(len(values) + 1, [
            (i, i + 1, c) for i, c in enumerate(values.tolist())],
            labels=tuple(f"v {i} %s" for i in range(len(values) + 1)))
        assert write_graph(chain) == reference_write_graph(chain)
