"""Harmonic and defect-eigenvector constructions for the line models.

Everything here produces constructive evidence, not numerics-only rank
estimates: each claimed basis vector comes with its defining relations
checked in exact rational arithmetic where the construction is exact, a
backward-style float residual for the floated copy, and tail diagnostics
for the energy and square-sum partial sums. Truncation frontier vertices
are excluded from every pointwise identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import sqrt
from typing import Optional, Sequence

import numpy as np

from .energy import EnergyVector, apply_laplacian, energy, project_fin_harm
from .graphs import (
    HALF_LINE_GEOM, LINE_GEOM_SYM, ModelSpec, WeightedGraph,
    build_half_line, build_sym_line,
)
from .linsolve import solve_reduced
from .polynomials import _float_quotient, _scaled_pairs

HARM_TRIVIAL = "HARM_TRIVIAL"
CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"

# Tail-window classification thresholds: geometric-type decay across the
# three dyadic windows for CONVERGENT, last increment comparable to the
# first for INFINITE growth evidence.
WINDOW_DECAY_RATIO = 0.95
INFINITE_FLOOR_FRACTION = 1e-3


def _dyadic_depths(n):
    return sorted({max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n})


def tail_flag(cumulative, depths):
    """Classify growth of a cumulative nonnegative sum at dyadic depths.

    cumulative[k] is the partial sum through index k. Returns
    (flag, [(depth, value), ...]).
    """
    marks = [(d, cumulative[d]) for d in depths]
    if len(marks) < 4:
        return INCONCLUSIVE, marks
    values = [v for _, v in marks]
    w1 = values[1] - values[0]
    w2 = values[2] - values[1]
    w3 = values[3] - values[2]
    if w1 <= 0 and w2 <= 0 and w3 <= 0:
        return CONVERGENT, marks
    decaying = (w2 < WINDOW_DECAY_RATIO * w1 or w2 == 0) and \
               (w3 < WINDOW_DECAY_RATIO * w2 or w3 == 0)
    if decaying:
        return CONVERGENT, marks
    if w1 > 0 and w3 >= INFINITE_FLOOR_FRACTION * w1:
        return DIVERGENT, marks
    return INCONCLUSIVE, marks


def _backward_residual(graph, u_values, rhs_values):
    """max_x |(Lap u + rhs)(x)| / rowscale(x) over interior vertices.

    rowscale is the backward-error normalization c(x) * local |u| scale
    plus the right-hand-side magnitude, which keeps the measure meaningful
    when conductances span many orders of magnitude.
    """
    vec = EnergyVector(graph, u_values)
    lap = apply_laplacian(vec).values
    max_u = float(np.max(np.abs(u_values))) if len(u_values) else 0.0
    worst = 0.0
    for x in range(graph.n_vertices):
        if not graph.interior_mask[x]:
            continue
        scale = graph.vertex_weights[x] * (abs(u_values[x]) + max_u) + abs(rhs_values[x]) + 1e-300
        worst = max(worst, abs(lap[x] + rhs_values[x]) / scale)
    return worst


# -- harmonic constructions -------------------------------------------------

@dataclass(frozen=True)
class HarmonicHalfLineResult:
    """Outcome of the search for nonconstant harmonic vectors on the half line."""

    verdict: str
    M: float
    N: int
    forced_first_increment: float   # increment at vertex 1 forced by the row at 0
    propagated_max_abs: float       # max |h| after forward substitution from h(0)=0

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "M": self.M,
            "N": self.N,
            "forced_first_increment": self.forced_first_increment,
            "propagated_max_abs": self.propagated_max_abs,
        }


def build_harmonic_zplus(M: float, N: int) -> HarmonicHalfLineResult:
    """Show that the geometric half line carries no nonconstant harmonic vector.

    The vertex-0 row of Lap h = 0 forces the first increment to vanish and
    the interior rows propagate a zero increment outward, so any solution
    is constant; the forward substitution is carried out numerically from
    h(0) = 0 and the resulting maximum modulus is reported (it is exactly
    zero).
    """
    if not M > 1:
        raise ValueError("M must be > 1")
    mu = [float(M) ** x for x in range(N + 1)]
    h = np.zeros(N + 1)
    # row at 0: mu(1) (h(0) - h(1)) = 0
    h[1] = h[0]
    first_increment = h[1] - h[0]
    # row at x: mu(x) dh(x) = mu(x+1) dh(x+1)
    for x in range(1, N):
        h[x + 1] = h[x] + (mu[x] / mu[x + 1]) * (h[x] - h[x - 1])
    return HarmonicHalfLineResult(HARM_TRIVIAL, float(M), N,
                                  first_increment, float(np.max(np.abs(h))))


@dataclass(frozen=True)
class HarmonicLineResult:
    """Odd harmonic vector on the symmetric line, with its energy."""

    vector: EnergyVector
    M: float
    t: float
    N: int
    interior_residual: float        # flux-form |Lap h| over interior vertices
    value_array_residual: float     # pointwise |Lap h| of the floated array
    energy_partial: float           # energy of the truncated vector
    energy_partial_closed: float    # closed form 2 t^2 xi (1 - xi^N)/(1 - xi)
    energy_limit: float             # closed form 2 t^2 xi / (1 - xi)
    antisymmetric_ok: bool

    def to_dict(self):
        return {
            "M": self.M,
            "t": self.t,
            "N": self.N,
            "interior_residual": self.interior_residual,
            "value_array_residual": self.value_array_residual,
            "energy_partial": self.energy_partial,
            "energy_partial_closed": self.energy_partial_closed,
            "energy_limit": self.energy_limit,
            "antisymmetric_ok": self.antisymmetric_ok,
        }


def build_harmonic_zline(M: float, t: float, N: int) -> HarmonicLineResult:
    """Build the odd harmonic vector h on the symmetric geometric line.

    h(0) = 0, h(-x) = -h(x) and h(x) = t (xi + xi^2 + ... + xi^x) with
    xi = 1/M, which makes every signed flux across an edge equal to t and
    hence Lap h = 0 at all interior vertices. The truncated energy is
    2 t^2 (xi + ... + xi^N) with limit 2 t^2 xi / (1 - xi).
    """
    if not M > 1:
        raise ValueError("M must be > 1")
    if t == 0:
        raise ValueError("t must be nonzero")
    graph = build_sym_line(M, N)
    M = float(M)
    xi = 1.0 / M
    values = np.zeros(2 * N + 1)
    acc = 0.0
    for x in range(1, N + 1):
        acc += xi ** x
        values[graph.index_of(x)] = t * acc
        values[graph.index_of(-x)] = -t * acc
    h = EnergyVector(graph, values, normalized=True)

    # Harmonicity in flux form: every signed flux mu(x) * (t xi^x) equals t,
    # so consecutive fluxes must agree; this stays meaningful at depths
    # where the cumulative values saturate double precision. The pointwise
    # residual of the floated value array is reported alongside, unasserted.
    flux = np.array([(M ** x) * (t * xi ** x) for x in range(1, N + 1)])
    flux_residual = float(np.max(np.abs(np.diff(flux)))) if N > 1 else 0.0
    # the vertex-0 row vanishes exactly by antisymmetry of the two increments
    lap = apply_laplacian(h).values
    value_residual = float(np.max(np.abs(lap[graph.interior_mask])))

    anti_ok = all(values[graph.index_of(-x)] == -values[graph.index_of(x)]
                  for x in range(N + 1))
    partial_closed = 2.0 * t * t * xi * (1.0 - xi ** N) / (1.0 - xi)
    return HarmonicLineResult(h, M, float(t), N, flux_residual, value_residual,
                              energy(h), partial_closed,
                              2.0 * t * t * xi / (1.0 - xi), anti_ok)


# -- defect eigenvector constructions ---------------------------------------

@dataclass(frozen=True)
class DeficiencySolution:
    """Exact solution of Lap u = -u on a truncated line model.

    The exact values are the scaled integers of the pair recursion at
    xi = a/b: `scaled[n] = (P_n, Q_n, R_n, D_n)` with

        u(n) = Q_n / D_n,   du(n) = u(n) - u(n-1) = R_n / D_n,   D_n = d b^T(n),

    T(n) = n(n+1)/2 and d the denominator of the seed. On the half line
    (d = 1) Q_n and R_n are coprime to b for n >= 1, so these quotients are
    already in lowest terms. `u_exact` and `du_exact` are the same values
    as Fractions, built on first read; `u_float`, `du_float` and the floated
    copy in `vector` are int / int quotients, correctly rounded exactly as
    Fraction.__float__ rounds. The defining relations are checked as
    integer identities (exact zero) and in floats (backward-style relative
    residual).
    """

    family: str
    M: float
    xi: Fraction
    N: int
    graph: WeightedGraph
    vector: EnergyVector
    scaled: list                    # (P_n, Q_n, R_n, D_n) for n = 0..N
    seed_relation_ok: bool
    flux_recursion_ok: bool
    interior_residual_exact_zero: bool
    float_residual_rel_max: float
    monotone_ok: bool
    energy_partials: tuple          # ((depth, value), ...)
    energy_flag: str
    l2_partials: tuple
    l2_flag: str
    upper_bound: float              # 1 + sqrt(A xi)/(1 - sqrt(xi)), A observed
    within_bound: bool
    classification: str             # energy verdict: CONVERGENT maps to FINITE
    energy_cumulative: tuple        # full per-coordinate partial sums
    l2_cumulative: tuple
    u_float: tuple                  # u(0..N) by coordinate
    du_float: tuple                 # du(1..N)

    @cached_property
    def u_exact(self):
        """u(0..N) by coordinate, Fractions."""
        return _q_values(self.scaled)

    @cached_property
    def du_exact(self):
        """u(x) - u(x-1) for x = 1..N, Fractions."""
        return tuple(Fraction(R, D) for _P, _Q, R, D in self.scaled[1:])

    def to_dict(self):
        return {
            "family": self.family,
            "M": self.M,
            "xi": str(self.xi),
            "N": self.N,
            "seed_relation_ok": self.seed_relation_ok,
            "flux_recursion_ok": self.flux_recursion_ok,
            "interior_residual_exact_zero": self.interior_residual_exact_zero,
            "float_residual_rel_max": self.float_residual_rel_max,
            "monotone_ok": self.monotone_ok,
            "energy_partials": [list(p) for p in self.energy_partials],
            "energy_flag": self.energy_flag,
            "l2_partials": [list(p) for p in self.l2_partials],
            "l2_flag": self.l2_flag,
            "upper_bound": self.upper_bound,
            "within_bound": self.within_bound,
            "classification": self.classification,
            "u_head": list(self.u_float[:8]),
        }


def _kernel_rows(ratio, N, seed=(0, 1)):
    """xi = 1/ratio exactly, and the scaled pair rows for n = 0..N."""
    xi = 1 / Fraction(float(ratio))
    return xi, list(islice(_scaled_pairs(xi, seed), N + 1))


def _q_values(rows):
    return tuple(Fraction(Q, D) for _P, Q, _R, D in rows)


def _energy_terms(rows):
    """Floats of xi^n p_n^2 = R_n P_n / (D_n D_(n-1)) for n = 1..N."""
    return np.array([_float_quotient(R, P, D, D_prev)
                     for (_, _, _, D_prev), (P, _, R, D) in zip(rows, rows[1:])])


def _exact_rows_zero(Q, a, b):
    """Flux recursion and interior rows of Lap u = -u as integer identities.

    With u(x) = Q_x / D_x, D_x = d b^T(x) and mu(x) = (b/a)^x, multiplying
    the flux recursion mu(x+1) du(x+1) = mu(x) du(x) + u(x) by
    a^(x+1) D_(x+1) / b^(x+1) clears every denominator:

        Q_(x+1) - b^(x+1) Q_x = a b^x (Q_x - b^x Q_(x-1)) + a^(x+1) Q_x.

    The interior row mu(x) du(x) + mu(x+1) (u(x) - u(x+1)) + u(x) = 0 is
    checked in the same scaled form, for x = 1 .. N-1; the vertex-0 row is
    checked by the callers because the two models seed it differently.
    Returns (flux_ok, interior_ok).
    """
    flux_ok = interior_ok = True
    a_next, b_x = a, 1
    for x in range(1, len(Q) - 1):
        a_next *= a
        b_x *= b
        inflow = a * b_x * (Q[x] - b_x * Q[x - 1])      # mu(x) du(x)
        outflow = Q[x + 1] - b * b_x * Q[x]             # mu(x+1) du(x+1)
        source = a_next * Q[x]                          # u(x)
        flux_ok = flux_ok and outflow == inflow + source
        interior_ok = interior_ok and inflow - outflow + source == 0
    return flux_ok, interior_ok


def _l2_flag_for(u_floats, depths):
    """Square-sum growth flag: partial sums pinned against 0.9 n min^2."""
    sq = np.cumsum(np.square(u_floats))
    marks = [(d, float(sq[d])) for d in depths]
    n = len(u_floats)
    min_u = float(np.min(np.abs(u_floats)))
    divergent = sq[-1] >= 0.9 * n * min_u * min_u and min_u > 0
    return (DIVERGENT if divergent else INCONCLUSIVE), marks


def _deficiency_solution(family, M, N, graph, xi, rows, seed_ok, zero_row_ok):
    """Checks, floats and growth evidence shared by the two line models."""
    a, b = xi.numerator, xi.denominator
    flux_ok, interior_ok = _exact_rows_zero([Q for _, Q, _, _ in rows], a, b)
    u = [Q / D for _P, Q, _R, D in rows]
    du = [R / D for _P, _Q, R, D in rows[1:]]
    half = np.array(u)
    sides = 2 if family == LINE_GEOM_SYM else 1
    values = np.zeros(graph.n_vertices)
    for x in range(-N if sides == 2 else 0, N + 1):
        values[graph.index_of(x)] = half[abs(x)]
    vector = EnergyVector(graph, values)
    float_rel = _backward_residual(graph, values, values.copy())

    depths = _dyadic_depths(N)
    terms = _energy_terms(rows)
    cumulative = np.concatenate([[0.0], np.cumsum(sides * terms)])
    energy_flag, energy_marks = tail_flag(cumulative, depths)
    l2_flag, l2_marks = _l2_flag_for(half, depths)

    monotone = all(R > 0 for _P, _Q, R, _D in rows[1:])
    a_obs = float(np.max(terms))
    bound = 1.0 + sqrt(a_obs * float(xi)) / (1.0 - sqrt(float(xi)))
    return DeficiencySolution(
        family, float(M), xi, N, graph, vector, rows,
        seed_ok, flux_ok, zero_row_ok and interior_ok, float_rel, monotone,
        tuple(energy_marks), energy_flag, tuple(l2_marks), l2_flag,
        bound, u[-1] <= bound + 1e-12,
        "FINITE" if energy_flag == CONVERGENT else
        ("INFINITE" if energy_flag == DIVERGENT else INCONCLUSIVE),
        tuple(float(v) for v in cumulative),
        tuple(float(v) for v in np.cumsum(np.square(half))),
        tuple(u), tuple(du))


def build_deficiency_zplus(M: float, N: int) -> DeficiencySolution:
    """Defect eigenvector u(n) = q_n(xi) on the geometric half line.

    Exactness: the vertex-0 relation u(1) = (1 + xi) u(0), the flux
    recursion mu(x+1) du(x+1) = mu(x) du(x) + u(x), and the interior rows
    of Lap u = -u all hold as integer identities of the scaled values.
    Energy partial sums are expected CONVERGENT and square-sum partials
    DIVERGENT.
    """
    if not M > 1:
        raise ValueError("M must be > 1")
    graph = build_half_line(M, N)
    xi, rows = _kernel_rows(M, N)
    a, b = xi.numerator, xi.denominator
    (_, Q0, _, _), (_, Q1, R1, _) = rows[:2]
    # u(1) = (1 + xi) u(0) times D_1, and mu(1) du(1) = u(0) times a D_1 / b
    seed_ok = Q1 == (b + a) * Q0 and R1 == a * Q0
    # vertex-0 row mu(1) (u(0) - u(1)) + u(0) = 0, times a D_1 / b
    zero_row_ok = b * Q0 - Q1 + a * Q0 == 0
    return _deficiency_solution(HALF_LINE_GEOM, M, N, graph, xi, rows,
                                seed_ok, zero_row_ok)


def build_deficiency_zline(M: float, N: int) -> DeficiencySolution:
    """Symmetric defect-eigenvector candidate on the two-sided line.

    Symmetry u(-x) = u(x) together with the vertex-0 row forces the first
    increment du(1) = (xi/2) u(0); from there the one-sided flux recursion
    propagates, which is the pair recursion from the seed
    (p_0, q_0) = (-1/2, 1), that is (p_1, q_1) = (1/2, 1 + xi/2). The
    energy verdict (FINITE, INFINITE or INCONCLUSIVE) is reported as
    evidence, never asserted.
    """
    if not M > 1:
        raise ValueError("M must be > 1")
    graph = build_sym_line(M, N)
    xi, rows = _kernel_rows(M, N, (Fraction(-1, 2), 1))
    a, b = xi.numerator, xi.denominator
    (_, Q0, _, _), (_, Q1, R1, _) = rows[:2]
    # du(1) = (xi/2) u(0) and u(1) = (1 + xi/2) u(0), both times 2 D_1
    seed_ok = 2 * R1 == a * Q0 and 2 * Q1 == (2 * b + a) * Q0
    # vertex-0 row M (2 u(0) - 2 u(1)) + u(0) = 0, times a D_1 / b
    zero_row_ok = 2 * b * Q0 - 2 * Q1 + a * Q0 == 0
    return _deficiency_solution(LINE_GEOM_SYM, M, N, graph, xi, rows,
                                seed_ok, zero_row_ok)


# -- the A-B two-sided model -------------------------------------------------

@dataclass(frozen=True)
class ABDeficiencyReport:
    """Defect-candidate analysis for the two-ratio line.

    The one-sided recursions pin u(1) and u(-1) from u(0); as written, the
    combined normalization evaluates to 2, not 1, so the literal candidate
    cannot satisfy the vertex-0 row. Both the literal candidate and a
    repaired candidate with per-side scale factors summing to 1 are
    reported; nothing is silently fixed. The per-side values are carried as
    scaled pair rows (see DeficiencySolution) and built as Fractions on
    first read.
    """

    A: float
    B: float
    N: int
    alpha: Fraction
    beta: Fraction
    literal_u1: Fraction
    literal_um1: Fraction
    literal_vertex0_residual: Fraction
    normalization_sum: Fraction       # p_1(alpha) + p_1(beta)
    normalization_flag: str
    repaired_lambda_plus: Fraction
    repaired_lambda_minus: Fraction
    repaired_u1: Fraction
    repaired_um1: Fraction
    repaired_vertex0_residual: Fraction
    literal_energy_partials: tuple
    repaired_energy_partials: tuple
    scaled: tuple                     # rows: literal +, literal -, repaired +, repaired -

    literal_values_pos = cached_property(lambda self: _q_values(self.scaled[0]))
    literal_values_neg = cached_property(lambda self: _q_values(self.scaled[1]))
    repaired_values_pos = cached_property(lambda self: _q_values(self.scaled[2]))
    repaired_values_neg = cached_property(lambda self: _q_values(self.scaled[3]))

    def to_dict(self):
        return {
            "A": self.A, "B": self.B, "N": self.N,
            "alpha": str(self.alpha), "beta": str(self.beta),
            "literal": {
                "u1": str(self.literal_u1),
                "um1": str(self.literal_um1),
                "vertex0_residual": str(self.literal_vertex0_residual),
                "normalization_sum": str(self.normalization_sum),
                "normalization_flag": self.normalization_flag,
                "energy_partials": [list(p) for p in self.literal_energy_partials],
            },
            "repaired": {
                "lambda_plus": str(self.repaired_lambda_plus),
                "lambda_minus": str(self.repaired_lambda_minus),
                "u1": str(self.repaired_u1),
                "um1": str(self.repaired_um1),
                "vertex0_residual": str(self.repaired_vertex0_residual),
                "energy_partials": [list(p) for p in self.repaired_energy_partials],
            },
        }


def _two_sided_energy_partials(pos_rows, neg_rows, depths):
    marks = []
    for rows in (pos_rows, neg_rows):
        cumulative = np.concatenate([[0.0], np.cumsum(_energy_terms(rows))])
        marks.append([float(cumulative[d]) for d in depths])
    return tuple((d, pa + pb) for d, pa, pb in zip(depths, *marks))


def solve_ab_deficiency(A: float, B: float, N: int) -> ABDeficiencyReport:
    """Analyze the defect system on the line with ratios A right, B left."""
    if not (A > 1 and B > 1):
        raise ValueError("A and B must both be > 1")
    alpha, pos = _kernel_rows(A, N)
    beta, neg = _kernel_rows(B, N)
    a_f, b_f = 1 / alpha, 1 / beta

    (u0, u1), (_, um1) = _q_values(pos[:2]), _q_values(neg[:2])
    literal_res = (a_f + b_f + 1) * u0 - a_f * u1 - b_f * um1
    # p_1 = P_1 / D_0 at each ratio; identically 1 + 1
    norm_sum = Fraction(pos[1][0], pos[0][3]) + Fraction(neg[1][0], neg[0][3])
    norm_flag = "CONSISTENT" if norm_sum == 1 else "INCONSISTENT_AS_WRITTEN"

    # per-side scale lambda: (p_1, q_1) = (lambda, 1 + lambda xi), i.e. the
    # seed (p_0, q_0) = (lambda - 1, 1)
    lam_p = Fraction(1, 2)
    lam_m = 1 - lam_p
    _, rep_pos = _kernel_rows(A, N, (lam_p - 1, 1))
    _, rep_neg = _kernel_rows(B, N, (lam_m - 1, 1))
    (_, rep_u1), (_, rep_um1) = _q_values(rep_pos[:2]), _q_values(rep_neg[:2])
    rep_res = (a_f + b_f + 1) * u0 - a_f * rep_u1 - b_f * rep_um1

    depths = _dyadic_depths(N)
    return ABDeficiencyReport(
        float(A), float(B), N, alpha, beta,
        u1, um1, literal_res, norm_sum, norm_flag,
        lam_p, lam_m, rep_u1, rep_um1, rep_res,
        _two_sided_energy_partials(pos, neg, depths),
        _two_sided_energy_partials(rep_pos, rep_neg, depths),
        (pos, neg, rep_pos, rep_neg))


# -- resolvent ----------------------------------------------------------------

@dataclass(frozen=True)
class ResolventResult:
    """Solution of (I + Lap) u = delta_x with its contract checks."""

    vector: EnergyVector
    x: int
    boundary: str
    residual_inf: float
    punctured_residual_inf: float
    l2_norm: float
    contractive_ok: bool
    energy_value: float
    energy_identity_rel: float        # against the interior quadratic sum
    energy_identity_full_rel: float   # against the full quadratic sum
    diagnostics: dict

    def to_dict(self):
        return {
            "x": self.x,
            "boundary": self.boundary,
            "residual_inf": self.residual_inf,
            "punctured_residual_inf": self.punctured_residual_inf,
            "l2_norm": self.l2_norm,
            "contractive_ok": self.contractive_ok,
            "energy_value": self.energy_value,
            "energy_identity_rel": self.energy_identity_rel,
            "energy_identity_full_rel": self.energy_identity_full_rel,
            "diagnostics": self.diagnostics,
        }


def resolvent_delta(graph: WeightedGraph, x: int, tol: float = 1e-10,
                    boundary: str = "free") -> ResolventResult:
    """Solve (I + Lap) u = delta_x; strictly positive definite, no pinning.

    boundary="free" solves the truncated system at every vertex. On the
    geometric line models the free truncation admits a near-flat tail of
    height about 1/N, which the infinite-graph square-summable solution
    does not have; boundary="dirichlet" pins the frontier vertices to
    zero, suppressing that mode, at the price of the frontier rows no
    longer satisfying the equation (residuals are then taken over the
    unpinned rows).
    """
    n = graph.n_vertices
    if boundary == "free":
        pinned = {}
    elif boundary == "dirichlet":
        frontier = graph.truncation.frontier if graph.truncation else ()
        if x in frontier:
            raise ValueError("the source vertex is pinned by the Dirichlet frontier")
        pinned = dict.fromkeys(frontier, 0.0)
    else:
        raise ValueError(f"unknown boundary policy {boundary!r}")
    sol, diag = solve_reduced(graph, 1.0, {x: 1.0}, pinned, tol)
    u = EnergyVector(graph, sol)
    lap = apply_laplacian(u).values
    full = sol + lap
    target = np.zeros(n)
    target[x] = 1.0
    row_mask = np.ones(n, dtype=bool)
    row_mask[list(pinned)] = False
    residual = float(np.max(np.abs((full - target)[row_mask])))
    punct_mask = row_mask.copy()
    punct_mask[x] = False
    punctured = float(np.max(np.abs(full[punct_mask]))) if punct_mask.any() else 0.0
    l2 = float(np.linalg.norm(sol))
    e_val = energy(u)
    quad = sol * lap
    interior_sum = float(np.sum(quad[graph.interior_mask]))
    full_sum = float(np.sum(quad))
    rel = abs(e_val - interior_sum) / max(e_val, 1e-300)
    rel_full = abs(e_val - full_sum) / max(e_val, 1e-300)
    return ResolventResult(u, x, boundary, residual, punctured, l2,
                           l2 <= 1.0 + 1e-12, e_val, rel, rel_full,
                           diag.to_dict())


# -- energy decomposition check ----------------------------------------------

@dataclass(frozen=True)
class SpaceDecompositionResult:
    """Terms of E(u) = S2(u) + E(P_Harm v) for u = v + Lap v."""

    energy_u: float
    s2_interior: float
    energy_harm_projection: float
    residual_rel: float
    passed: bool

    def to_dict(self):
        return {
            "energy_u": self.energy_u,
            "s2_interior": self.s2_interior,
            "energy_harm_projection": self.energy_harm_projection,
            "residual_rel": self.residual_rel,
            "passed": self.passed,
        }


def space_decomposition_check(v: EnergyVector, harm_basis: Sequence[EnergyVector],
                              tol: float = 1e-6) -> SpaceDecompositionResult:
    """Check the energy decomposition for u = v + Lap v.

    All three terms are computed independently: the energy of u by the
    edge sum, the quadratic sum over interior vertices, and the energy of
    the harmonic projection of v through the Gram matrix of the supplied
    basis.
    """
    u_values = v.values + apply_laplacian(v).values
    u = EnergyVector(v.graph, u_values)
    lap_u = apply_laplacian(u).values
    s2_int = float(np.sum((np.conj(u_values) * lap_u)[v.graph.interior_mask].real))
    e_u = energy(u)
    _fin, harm = project_fin_harm(v, list(harm_basis))
    e_harm = energy(harm)
    residual = abs(e_u - (s2_int + e_harm)) / max(abs(e_u), 1e-300)
    return SpaceDecompositionResult(e_u, s2_int, e_harm, residual, residual <= tol)


# -- model classification ------------------------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    """Harmonic/defect dimension evidence for one model instance."""

    family: str
    M: float
    N: int
    harm_dim: int
    harm_hard: bool                  # the dimension is asserted, not estimated
    harm_evidence: dict
    def_dim: Optional[int]
    def_hard: bool
    def_evidence: dict
    curves: dict = field(default_factory=dict)   # coordinate-indexed arrays

    @property
    def hard_expectations_ok(self):
        checks = []
        if self.family == HALF_LINE_GEOM:
            checks = [self.harm_dim == 0, self.def_dim == 1,
                      self.def_evidence.get("interior_residual_exact_zero", False),
                      self.def_evidence.get("energy_flag") == CONVERGENT,
                      self.def_evidence.get("l2_flag") == DIVERGENT]
        elif self.family == LINE_GEOM_SYM:
            checks = [self.harm_dim == 1,
                      self.harm_evidence.get("interior_residual", 1.0) <= 1e-12]
        return all(checks)

    def to_dict(self):
        return {
            "family": self.family,
            "M": self.M,
            "N": self.N,
            "harm_dim": self.harm_dim,
            "harm_hard": self.harm_hard,
            "harm_evidence": self.harm_evidence,
            "def_dim": self.def_dim,
            "def_hard": self.def_hard,
            "def_evidence": self.def_evidence,
            "hard_expectations_ok": self.hard_expectations_ok,
        }


def classify_model(spec: ModelSpec) -> BoundaryReport:
    """Assemble harmonic/defect evidence for the geometric line models."""
    if spec.family == HALF_LINE_GEOM:
        harm = build_harmonic_zplus(spec.M, spec.N)
        deficiency = build_deficiency_zplus(spec.M, spec.N)
        harm_dim = 0 if harm.verdict == HARM_TRIVIAL else 1
        # The paper gives the half line one defect vector for every M > 1.
        # The energy and square-sum flags read a finite window, so when one
        # of them fails the vector is not certified, but not refuted either.
        flags_ok = (deficiency.energy_flag == CONVERGENT
                    and deficiency.l2_flag == DIVERGENT)
        if not deficiency.interior_residual_exact_zero:
            def_dim, def_hard = 0, True
        else:
            def_dim, def_hard = (1, True) if flags_ok else (None, False)
        extra = {}
    elif spec.family == LINE_GEOM_SYM:
        harm = build_harmonic_zline(spec.M, 1.0, spec.N)
        deficiency = build_deficiency_zline(spec.M, spec.N)
        harm_ok = (harm.interior_residual <= 1e-12
                   and harm.energy_partial > 0
                   and abs(harm.energy_partial - harm.energy_partial_closed)
                   <= 1e-10 * harm.energy_limit)
        harm_dim = 1 if harm_ok else 0
        def_dim = {"FINITE": 1, "INFINITE": 0}.get(deficiency.classification)
        def_hard = False
        extra = {"h": [float(harm.vector.values[harm.vector.graph.index_of(x)])
                       for x in range(spec.N + 1)]}
    else:
        raise ValueError(f"classification supports the geometric line models only, "
                         f"not {spec.family!r}")
    curves = {
        "coordinate": list(range(spec.N + 1)),
        "u": list(deficiency.u_float),
        "du": [0.0] + list(deficiency.du_float),
        "energy_partial": list(deficiency.energy_cumulative),
        "l2_partial": list(deficiency.l2_cumulative),
        **extra,
    }
    return BoundaryReport(
        spec.family, spec.M, spec.N,
        harm_dim, True, harm.to_dict(),
        def_dim, def_hard, deficiency.to_dict(), curves)


def boundary_curves_csv(report: BoundaryReport) -> str:
    """CSV of the per-coordinate curves carried by a BoundaryReport."""
    curves = report.curves
    keys = [k for k in ("coordinate", "u", "du", "h", "energy_partial",
                        "l2_partial") if k in curves]
    lines = [",".join(keys)]
    length = len(curves[keys[0]])
    for i in range(length):
        lines.append(",".join(repr(curves[k][i]) if k != "coordinate"
                              else str(curves[k][i]) for k in keys))
    return "\n".join(lines) + "\n"
