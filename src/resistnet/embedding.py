"""Energy-isometric embeddings between weighted graphs.

A map is a pair (phi, psi): a vertex map phi from the source graph G into
the target graph H together with a positive weight psi on G. The pullback
T u = u o phi is checked to be an isometry of energy forms whose
Laplacians intertwine through psi,

    (T Lap_H u)(x) = psi(x) (Lap_G T u)(x),

and a verified map transports monopoles from H to G.
The worked pair maps the constant-conductance binary tree onto the
geometric half line with doubling conductances, psi = 2^depth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .energy import EnergyVector, apply_laplacian, energy
from .graphs import DYADIC_TREE, WeightedGraph, build_dyadic_tree, build_half_line, record_dict
from .linsolve import point_source, solve_reduced


class MissingCertificateError(RuntimeError):
    """Transport was requested through a map with no passing certificate."""


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Recorded residuals from the isometry and intertwining checks."""

    passed: bool
    n_vectors: int
    seed: int
    max_isometry_rel: float
    max_intertwine_resid: float
    tolerance: float

    to_dict = record_dict


@dataclass(frozen=True)
class GraphMap:
    """Vertex map phi: source -> target with positive weights psi on source."""

    source: WeightedGraph
    target: WeightedGraph
    phi: np.ndarray
    psi: np.ndarray
    certificate: Optional[CompatibilityCertificate] = None

    def __post_init__(self):
        phi = np.asarray(self.phi)
        if phi.dtype.kind == "f" and not np.all(np.isfinite(phi) & (np.floor(phi) == phi)):
            raise ValueError("phi must map to integer vertex indices")
        phi = phi.astype(int)
        psi = np.asarray(self.psi, dtype=float)
        if phi.shape != (self.source.n_vertices,):
            raise ValueError("phi must assign a target vertex to every source vertex")
        if np.any(phi < 0) or np.any(phi >= self.target.n_vertices):
            raise ValueError("phi maps outside the target vertex set")
        if psi.shape != (self.source.n_vertices,) or not np.all(psi > 0):
            raise ValueError("psi must be positive on every source vertex")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    def with_certificate(self, cert: CompatibilityCertificate) -> "GraphMap":
        return replace(self, certificate=cert)


def pullback(gmap: GraphMap, u: EnergyVector) -> EnergyVector:
    """(T u)(x) = u(phi(x)); u must live on a deep enough target truncation."""
    needed = int(np.max(gmap.phi))
    if u.graph.n_vertices <= needed:
        raise ValueError(
            f"target vector covers {u.graph.n_vertices} vertices but the map "
            f"reaches vertex {needed}; rebuild the target at depth >= the source")
    return EnergyVector(gmap.source, u.values[gmap.phi])


def compose_maps(first: GraphMap, second: GraphMap) -> GraphMap:
    """Map G -> K from G -> H and H -> K; pullbacks compose contravariantly.

    The composed weight is psi_first(x) * psi_second(phi_first(x)), which
    is the factor that makes the intertwining identity chain through.
    """
    if first.target is not second.source and first.target != second.source:
        raise ValueError("maps do not chain: first.target differs from second.source")
    phi = second.phi[first.phi]
    psi = first.psi * second.psi[first.phi]
    return GraphMap(first.source, second.target, phi, psi)


# entries of one block of test vectors (rows times vertices); the block
# keeps memory O(block * V), and a graph this large gets one row per block
_BLOCK_ENTRIES = 2 ** 14


def _block_rows(gmap):
    """Test vectors drawn and checked together by check_compatible."""
    return max(1, _BLOCK_ENTRIES // max(gmap.source.n_vertices, gmap.target.n_vertices))


def _block_ends(graph, rows):
    """The flat index row * V + vertex of the x ends, then the y ends, of each of rows rows."""
    x, y, _ = graph.edge_arrays
    return (np.concatenate((x, y)) + graph.n_vertices * np.arange(rows)[:, None]).ravel()


def _energy_terms_and_laplacian(graph, at_x, at_y, ends):
    """Per row: energy's edge terms and apply_laplacian, from the values at the edge ends.

    The terms are energy's c * diff * diff in its order. The Laplacian of
    all rows is one np.bincount over ends (from _block_ends, for at least
    this many rows), which adds in the order given: each row adds its x
    ends in edge order and then its y ends, apply_laplacian's order, so a
    row's floats are those of energy and apply_laplacian on that row alone.
    """
    c = graph.edge_arrays[2]
    diff = at_x - at_y
    rows, n = diff.shape[0], graph.n_vertices
    weights = np.empty((rows, 2 * len(c)))      # per row: flow, then -flow
    flow = np.multiply(c, diff, out=weights[:, :len(c)])
    np.negative(flow, out=weights[:, len(c):])
    lap = np.bincount(ends[:weights.size], weights.ravel(), rows * n)
    return flow * diff, lap.reshape(rows, n).astype(np.float64, copy=False)


def check_compatible(gmap: GraphMap, test_vectors: int = 100, seed: int = 0,
                     tol: float = 1e-10) -> CompatibilityCertificate:
    """Certify the map: energy isometry plus Laplacian intertwining.

    Both checks run on seeded random interior-supported vectors on the
    target; residuals are recorded in the certificate, and passed is the
    conjunction at the given tolerance over every vector drawn: a row whose
    residual is not finite (its energy overflowed) was not checked, and
    fails the certificate. A certificate needs at least one test vector.

    The vectors are drawn and checked in blocks of rows, so memory is
    O(block * V) with block = max(1, 2**14 // V). One draw of a block is
    the same numbers as that many single draws, and each row's energy
    (its entry of one row sum over the block, the pairwise sum a 1-D sum
    of that row gives) and Laplacian (a bincount that adds each row's
    terms in edge order) add in the order of energy and apply_laplacian,
    so the certificate is byte-identical to checking one vector at a
    time. The worst residuals are folded over each block with
    np.fmax.reduce, from the worst so far: fmax skips a nan row, as
    max(worst, nan) does in a one-at-a-time fold, where np.max would give
    nan.
    """
    if test_vectors < 1:
        raise ValueError(f"need at least one test vector (got {test_vectors})")
    source, target, phi = gmap.source, gmap.target, gmap.phi
    tx, ty, _ = target.edge_arrays
    sx, sy, _ = source.edge_arrays
    # random_interior_vector(target, rng, margin=1), a block at a time
    frontier = np.flatnonzero(~target.interior_mask)
    # the pullback u o phi at the source edge ends, read off the target values
    px, py = phi[sx], phi[sy]
    interior = np.flatnonzero(source.interior_mask)
    phi_in, psi_in = phi[interior], gmap.psi[interior]
    block = min(_block_rows(gmap), test_vectors)
    target_ends, source_ends = _block_ends(target, block), _block_ends(source, block)
    rng = np.random.default_rng(seed)
    worst_iso = 0.0
    worst_int = 0.0
    all_finite = True
    for lo in range(0, test_vectors, block):
        u = rng.standard_normal((min(block, test_vectors - lo), target.n_vertices))
        u[:, frontier] = 0.0
        e_target, lap_h = _energy_terms_and_laplacian(
            target, np.take(u, tx, axis=1), np.take(u, ty, axis=1), target_ends)
        e_source, lap_g = _energy_terms_and_laplacian(
            source, np.take(u, px, axis=1), np.take(u, py, axis=1), source_ends)
        # (T Lap_H u)(x) against psi(x) (Lap_G T u)(x) at interior source x
        lhs = np.take(lap_h, phi_in, axis=1)
        rhs = psi_in * np.take(lap_g, interior, axis=1)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        et, es = e_target.sum(axis=1), e_source.sum(axis=1)
        isometry = np.abs(es - et) / np.maximum(et, 1e-300)
        worst_iso = float(np.fmax.reduce(isometry, initial=worst_iso))
        intertwine = np.max(np.abs(lhs - rhs) / scale, axis=1)
        worst_int = float(np.fmax.reduce(intertwine, initial=worst_int))
        all_finite = all_finite and bool(np.isfinite(isometry).all()
                                         and np.isfinite(intertwine).all())
    passed = all_finite and worst_iso <= tol and worst_int <= tol
    return CompatibilityCertificate(passed, test_vectors, seed,
                                    worst_iso, worst_int, tol)


def _require_certificate(gmap):
    if gmap.certificate is None or not gmap.certificate.passed:
        raise MissingCertificateError(
            "run check_compatible and attach a passing certificate first")


def transport_monopole(gmap: GraphMap, w: EnergyVector):
    """Pull a monopole (Lap w = -delta at the base) through a certified map.

    Requires phi to match the two base vertices. Returns (Tw, residual of
    Lap_G Tw + psi(o_G) delta_{o_G} over interior source vertices).
    """
    _require_certificate(gmap)
    o_g = gmap.source.base_vertex
    o_h = w.graph.base_vertex
    if int(gmap.phi[o_g]) != o_h:
        raise ValueError("phi does not map the source base vertex to the target one")
    lap_w = apply_laplacian(w).values
    target_rhs = np.zeros(w.graph.n_vertices)
    target_rhs[o_h] = 1.0
    target_resid = float(np.max(np.abs((lap_w + target_rhs)[w.graph.interior_mask])))
    if target_resid > 1e-9:
        raise ValueError(f"input is not a monopole on the target interior "
                         f"(residual {target_resid:g})")
    tw = pullback(gmap, w)
    lap_tw = apply_laplacian(tw).values
    source_rhs = np.zeros(gmap.source.n_vertices)
    source_rhs[o_g] = float(gmap.psi[o_g])
    resid = float(np.max(np.abs((lap_tw + source_rhs)[gmap.source.interior_mask])))
    return tw, resid


# -- the worked pair: binary tree onto the doubling half line -----------------

def dyadic_pair(c_const: float = 1.0, N: int = 8, wrong_psi: bool = False) -> GraphMap:
    """Tree-to-half-line map: phi = word depth, psi = 2^depth.

    Each tree level n holds 2^n vertices and 2^(n+1) edges down to level
    n+1, so pulling back along depth matches the half line with
    conductance c_const * 2^n on edge (n-1, n), edge for edge. wrong_psi
    swaps in psi = 1, a deliberately broken weight for demonstrating
    certificate failure. N >= 2, the depth every line model needs.
    """
    tree = build_dyadic_tree(c_const, N)
    line = build_half_line(2, N, scale=c_const)
    depth = np.repeat(np.arange(N + 1), 2 ** np.arange(N + 1))    # heap order
    psi = np.ones(tree.n_vertices) if wrong_psi else 2.0 ** depth
    return GraphMap(tree, line, depth, psi)


def dirichlet_monopole(graph: WeightedGraph, tol: float = 1e-10) -> EnergyVector:
    """Approximate monopole: solve Lap w = -delta_base with w = 0 at the frontier.

    The frontier vertices are pinned, which keeps the reduced system
    strictly positive definite; interior rows then satisfy the monopole
    equation to solver accuracy.
    """
    if graph.truncation is None or not graph.truncation.frontier:
        raise ValueError("a Dirichlet monopole needs a truncation frontier to pin")
    values, _diag = solve_reduced(graph, 0.0, point_source(graph, graph.base_vertex, -1.0),
                                  ~graph.interior_mask, np.zeros(graph.n_vertices), tol)
    return EnergyVector(graph, values)


@dataclass(frozen=True)
class TreeHarmonicResult:
    """Dirichlet evidence for a nonconstant finite-energy harmonic vector."""

    vector: EnergyVector
    N: int
    c_const: float
    interior_residual: float
    root_value: float
    antisymmetric_ok: bool       # values under child 0 mirror those under child 1
    energy_value: float

    def to_dict(self):
        return record_dict(self, ("vector",))


def tree_harmonic_direct(tree: WeightedGraph, tol: float = 1e-10) -> TreeHarmonicResult:
    """Solve Lap h = 0 on a dyadic tree with leaf values +/-1.

    tree is a build_dyadic_tree graph of depth N >= 3 (dyadic_pair's
    source is one); N and c_const are read from its truncation, and any
    other graph is a ValueError. Leaves under child 0 of the root are
    pinned at +1 and leaves under child 1 at -1; by the odd symmetry of
    the boundary data the solution vanishes at the root and mirrors across
    the two subtrees. Nonzero energy with a small interior residual is
    direct evidence of a nonconstant harmonic vector of finite energy.
    """
    info = tree.truncation
    if info is None or info.family != DYADIC_TREE or info.depth < 3:
        got = "no truncation" if info is None else f"{info.family} of depth {info.depth}"
        raise ValueError(f"need a dyadic tree of depth N >= 3 so the tree has interior "
                         f"structure (got {got})")
    N = info.depth
    leaves = info.frontier      # a range: under child 0, then under child 1
    half = len(leaves) // 2
    boundary = np.repeat([0.0, 1.0, -1.0], [leaves.start, half, half])
    values, _diag = solve_reduced(tree, 0.0, np.zeros_like(boundary), ~tree.interior_mask,
                                  boundary, tol)
    h = EnergyVector(tree, values)
    lap = apply_laplacian(h).values
    interior_residual = float(np.max(np.abs(lap[tree.interior_mask])))
    # the elimination treats mirrored subtrees identically, so the odd boundary
    # data gives exactly opposite values in the two halves of every heap level
    levels = (values[2 ** n - 1:2 ** (n + 1) - 1] for n in range(1, N + 1))
    anti_ok = all(np.array_equal(level[:len(level) // 2], -level[len(level) // 2:])
                  for level in levels)
    return TreeHarmonicResult(h, N, info.params["c_const"], interior_residual,
                              float(values[tree.base_vertex]), anti_ok,
                              energy(h))
