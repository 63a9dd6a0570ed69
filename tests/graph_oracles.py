"""Record-level references for the graph tests.

A graph holds only its edge arrays. These helpers build one from (x, y, c)
records, rebuild the per-vertex adjacency edge by edge from its records,
and find validate()'s violations with the edge loop and dict of seen pairs
that its array form replaced, so that the tests check the arrays, the CSR
view and validate() against loops that do not share their code.
"""

import numpy as np

from resistnet.graphs import WeightedGraph


def graph_from_records(n_vertices, records, **kwargs):
    """WeightedGraph with the records' columns as int64, int64 and float64 arrays."""
    records = list(records)
    columns = (np.array([r[0] for r in records], dtype=np.int64),
               np.array([r[1] for r in records], dtype=np.int64),
               np.array([r[2] for r in records], dtype=np.float64))
    return WeightedGraph(n_vertices, columns, **kwargs)


def adjacency_by_edges(graph):
    """Per-vertex (neighbour, conductance) lists, appended edge by edge."""
    adj = [[] for _ in range(graph.n_vertices)]
    for x, y, c in graph.edges:
        adj[x].append((y, c))
        adj[y].append((x, c))
    return adj


def validate_by_edges(graph):
    """The violations of validate(), found edge by edge with a dict of seen pairs."""
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
    return tuple(violations)
