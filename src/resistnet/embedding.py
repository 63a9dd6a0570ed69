"""Energy-isometric embeddings between weighted graphs.

A map is a pair (phi, psi): a vertex map phi from the source graph G into
the target graph H together with a positive weight psi on G. The pullback
T u = u o phi is checked to be an isometry of energy forms whose
Laplacians intertwine through psi,

    (T Lap_H u)(x) = psi(x) (Lap_G T u)(x),

and a verified map transports harmonic vectors and monopoles from H to G.
The worked pair maps the constant-conductance binary tree onto the
geometric half line with doubling conductances, psi = 2^depth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .energy import EnergyVector, apply_laplacian, energy, random_interior_vector
from .graphs import WeightedGraph, build_dyadic_tree, build_half_line
from .linsolve import solve_reduced


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

    def to_dict(self):
        return {
            "passed": self.passed,
            "n_vectors": self.n_vectors,
            "seed": self.seed,
            "max_isometry_rel": self.max_isometry_rel,
            "max_intertwine_resid": self.max_intertwine_resid,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class GraphMap:
    """Vertex map phi: source -> target with positive weights psi on source."""

    source: WeightedGraph
    target: WeightedGraph
    phi: np.ndarray
    psi: np.ndarray
    certificate: Optional[CompatibilityCertificate] = None

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=int)
        psi = np.asarray(self.psi, dtype=float)
        if phi.shape != (self.source.n_vertices,):
            raise ValueError("phi must assign a target vertex to every source vertex")
        if np.any(phi < 0) or np.any(phi >= self.target.n_vertices):
            raise ValueError("phi maps outside the target vertex set")
        if psi.shape != (self.source.n_vertices,) or np.any(psi <= 0):
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


def identity_map(graph: WeightedGraph) -> GraphMap:
    return GraphMap(graph, graph, np.arange(graph.n_vertices),
                    np.ones(graph.n_vertices))


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


def _intertwine_residual(gmap, u):
    """max over interior source vertices of the scaled-flooring residual."""
    lap_h = apply_laplacian(u)
    lhs = pullback(gmap, lap_h).values
    tu = pullback(gmap, u)
    rhs = gmap.psi * apply_laplacian(tu).values
    interior = gmap.source.interior_mask
    num = np.abs(lhs - rhs)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max((num / scale)[interior]))


def check_compatible(gmap: GraphMap, test_vectors: int = 100, seed: int = 0,
                     tol: float = 1e-10) -> CompatibilityCertificate:
    """Certify the map: energy isometry plus Laplacian intertwining.

    Both checks run on seeded random interior-supported vectors on the
    target; residuals are recorded in the certificate, and passed is the
    conjunction at the given tolerance.
    """
    rng = np.random.default_rng(seed)
    worst_iso = 0.0
    worst_int = 0.0
    for _ in range(test_vectors):
        u = random_interior_vector(gmap.target, rng, margin=1)
        e_target = energy(u)
        e_source = energy(pullback(gmap, u))
        denom = max(e_target, 1e-300)
        worst_iso = max(worst_iso, abs(e_source - e_target) / denom)
        worst_int = max(worst_int, _intertwine_residual(gmap, u))
    passed = worst_iso <= tol and worst_int <= tol
    return CompatibilityCertificate(passed, test_vectors, seed,
                                    worst_iso, worst_int, tol)


def _require_certificate(gmap):
    if gmap.certificate is None or not gmap.certificate.passed:
        raise MissingCertificateError(
            "run check_compatible and attach a passing certificate first")


def transport_harmonic(gmap: GraphMap, u: EnergyVector):
    """Pull a harmonic vector back through a certified map.

    Returns (Tu, interior harmonicity residual on the source); the
    intertwining identity bounds the source residual by max(1/psi) times
    the target residual plus rounding.
    """
    _require_certificate(gmap)
    lap_u = apply_laplacian(u).values
    target_resid = float(np.max(np.abs(lap_u[u.graph.interior_mask])))
    if target_resid > 1e-9:
        raise ValueError(f"input is not harmonic on the target interior "
                         f"(residual {target_resid:g})")
    tu = pullback(gmap, u)
    lap_tu = apply_laplacian(tu).values
    source_resid = float(np.max(np.abs(lap_tu[gmap.source.interior_mask])))
    return tu, source_resid


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
    depth = np.array([len(w) for w in tree.labels])
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
    pinned = dict.fromkeys(graph.truncation.frontier, 0.0)
    values, _diag = solve_reduced(graph, 0.0, {graph.base_vertex: -1.0}, pinned, tol)
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
        return {
            "N": self.N,
            "c_const": self.c_const,
            "interior_residual": self.interior_residual,
            "root_value": self.root_value,
            "antisymmetric_ok": self.antisymmetric_ok,
            "energy_value": self.energy_value,
        }


def tree_harmonic_direct(c_const: float, N: int, tol: float = 1e-10) -> TreeHarmonicResult:
    """Solve Lap h = 0 on the depth-N tree with leaf values +/-1.

    Leaves under child 0 of the root are pinned at +1 and leaves under
    child 1 at -1; by the odd symmetry of the boundary data the solution
    vanishes at the root and mirrors across the two subtrees. Nonzero
    energy with a small interior residual is direct evidence of a
    nonconstant harmonic vector of finite energy.
    """
    if N < 3:
        raise ValueError("N must be >= 3 so the tree has interior structure")
    graph = build_dyadic_tree(c_const, N)
    labels = graph.labels
    boundary = {i: (1.0 if w[0] == "0" else -1.0)
                for i, w in enumerate(labels) if len(w) == N}
    values, _diag = solve_reduced(graph, 0.0, {}, boundary, tol)
    h = EnergyVector(graph, values)
    lap = apply_laplacian(h).values
    interior_residual = float(np.max(np.abs(lap[graph.interior_mask])))
    index = {w: i for i, w in enumerate(labels)}
    # the elimination treats mirrored subtrees identically, so the odd
    # boundary data gives exactly opposite values at every depth
    anti_ok = all(values[index["0" + w]] == -values[index["1" + w]]
                  for w in labels if len(w) <= N - 1)
    return TreeHarmonicResult(h, N, float(c_const), interior_residual,
                              float(values[graph.base_vertex]), anti_ok,
                              energy(h))


def tree_harmonic_energy_curve(c_const: float, n_values: Sequence[int]):
    """Energies of the Dirichlet tree solutions over a range of depths."""
    out = []
    for n in n_values:
        res = tree_harmonic_direct(c_const, n)
        out.append((n, res.energy_value))
    return out


# -- serialization: lines `map <g_vertex> <h_vertex> <psi>` -------------------

def write_map(gmap: GraphMap) -> str:
    lines = []
    for x in range(gmap.source.n_vertices):
        lines.append(f"map {x} {int(gmap.phi[x])} {float(gmap.psi[x])!r}")
    return "\n".join(lines) + "\n"


def read_map(source: WeightedGraph, target: WeightedGraph, text: str) -> GraphMap:
    phi = np.zeros(source.n_vertices, dtype=int)
    psi = np.ones(source.n_vertices)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "map":
            raise ValueError(f"unknown record {parts[0]!r} in map data")
        phi[int(parts[1])] = int(parts[2])
        psi[int(parts[1])] = float(parts[3])
    return GraphMap(source, target, phi, psi)
