"""Record-level references for the graph tests.

A graph holds only its edge arrays. These helpers build one from (x, y, c)
records, and rebuild the per-vertex adjacency edge by edge from its
records, so that the tests check the arrays and the CSR view against loops
that do not share their code.
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
