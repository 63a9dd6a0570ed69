"""Harmonic and defect-eigenvector constructions for the line models.

Everything here produces constructive evidence, not numerics-only rank
estimates: each claimed basis vector comes with its defining relations
checked in exact rational arithmetic where the construction is exact, a
backward-style float residual for the floated copy, and tail diagnostics
for the energy and square-sum partial sums. Truncation frontier vertices
are excluded from every pointwise identity.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import sqrt
from typing import Optional, Sequence

import numpy as np

from .energy import EnergyVector, apply_laplacian, energy, project_fin_harm
from .graphs import (
    HALF_LINE_GEOM, LINE_GEOM_SYM, WeightedGraph, _require_depth, _require_ratio,
    build_half_line, build_sym_line, format_rows, record_dict,
)
from .linsolve import point_source, solve_reduced
from .polynomials import _float_quotient, _scaled_pairs, _split_two, _times

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


# the line families classify_model takes: family -> (graph builder, sides)
_LINES = {HALF_LINE_GEOM: (build_half_line, 1), LINE_GEOM_SYM: (build_sym_line, 2)}


def _defect_residual(u, M, sides):
    """max_x |(Lap u + u)(x)| / (c(x) (|u(x)| + max |u|) + |u(x)|) over the
    interior rows of a line, u = u(0..N) on each side, c(0) = sides M.

    Row x is divided through by M**(x+1), exactly at a power of two M, so no
    conductance is formed and nothing overflows; xi**(x+1) may underflow.
    """
    a, xi = np.abs(u), 1.0 / M
    x = np.arange(1, len(u) - 1)
    # Python's pow, as the builders use; numpy's vector pow may round otherwise
    xi_x = np.array([xi ** k for k in range(2, len(u))])
    rows = (np.abs(u[x] - u[x + 1] - xi * (u[x - 1] - u[x]) + xi_x * u[x])
            / ((1 + xi) * (a[x] + a.max()) + xi_x * a[x]))
    row_0 = abs(sides * (u[0] - u[1]) + xi * u[0]) / (sides * (a[0] + a.max()) + xi * a[0])
    return float(np.max(rows, initial=row_0))


# -- harmonic constructions -------------------------------------------------

@dataclass(frozen=True)
class HarmonicHalfLineResult:
    """Outcome of the search for nonconstant harmonic vectors on the half line."""

    verdict: str
    M: float
    N: int
    forced_first_increment: float   # increment at vertex 1 forced by the row at 0
    propagated_max_abs: float       # max |h| after forward substitution from h(0)=0

    to_dict = record_dict


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
    xi = 1.0 / float(M)
    h = np.zeros(N + 1)
    # row at 0: mu(1) (h(0) - h(1)) = 0
    h[1] = h[0]
    first_increment = h[1] - h[0]
    # row at x: mu(x) dh(x) = mu(x+1) dh(x+1), so dh(x+1) = xi dh(x)
    for x in range(1, N):
        h[x + 1] = h[x] + xi * (h[x] - h[x - 1])
    return HarmonicHalfLineResult(HARM_TRIVIAL, float(M), N,
                                  first_increment, float(np.max(np.abs(h))))


@dataclass(frozen=True)
class HarmonicLineResult:
    """Odd harmonic vector h(0..N) on the symmetric line, with its energy;
    `vector` builds the line graph on first read."""

    h: np.ndarray
    M: float
    t: float
    N: int
    interior_residual: float        # flux-form |Lap h| over interior vertices
    value_array_residual: float     # pointwise |Lap h| of the floated array
    energy_partial: float           # energy of the truncated vector
    energy_partial_closed: float    # closed form 2 t^2 xi (1 - xi^N)/(1 - xi)
    energy_limit: float             # closed form 2 t^2 xi / (1 - xi)
    antisymmetric_ok: bool

    vector = cached_property(lambda self: EnergyVector(
        build_sym_line(self.M, self.N), np.concatenate([-self.h[:0:-1], self.h]), normalized=True))

    def to_dict(self):
        return record_dict(self, ("h",))


def build_harmonic_zline(M: float, t: float, N: int) -> HarmonicLineResult:
    """Build the odd harmonic vector h on the symmetric geometric line.

    h(0) = 0, h(-x) = -h(x) and h(x) = t (xi + xi^2 + ... + xi^x) with
    xi = 1/M, which makes every signed flux across an edge equal to t and
    hence Lap h = 0 at all interior vertices. The truncated energy is
    2 t^2 (xi + ... + xi^N) with limit 2 t^2 xi / (1 - xi).
    """
    _require_ratio(M, "M")
    _require_depth(N)
    if t == 0:
        raise ValueError("t must be nonzero")
    M, xi = float(M), 1.0 / M
    # h(x) = t (xi + ... + xi^x), summed in order
    half = np.concatenate([[0.0], t * np.cumsum([xi ** x for x in range(1, N + 1)])])
    mu = []         # mu(x) = M**x as the builders form it, while it is finite
    with suppress(OverflowError):
        for x in range(1, N + 1):
            mu.append(M ** x)

    # Harmonicity in flux form: every signed flux mu(x) * (t xi^x) equals t,
    # so consecutive fluxes must agree, also where the values h(x) saturate.
    # The pointwise residual of the floated values is reported, unasserted.
    flux = np.array([c * (t * xi ** x) for x, c in enumerate(mu, 1)])
    flux_residual = float(np.max(np.abs(np.diff(flux)), initial=0.0))
    # The steps h(x-1) - h(x) vanish long before mu(x) overflows. Lap h at
    # x >= 1 is flow(x+1) - flow(x), mirrored on the left, 0 at x = 0; the
    # energy sums its terms in the graph's edge order, right and left alternating.
    step = half[:-1] - half[1:]
    flow = np.array(mu + [0.0] * (N - len(mu))) * step
    value_residual = float(np.max(np.abs(np.diff(flow)), initial=0.0))

    partial_closed = 2.0 * t * t * xi * (1.0 - xi ** N) / (1.0 - xi)
    return HarmonicLineResult(half, M, float(t), N, flux_residual, value_residual,
                              float(np.sum(np.repeat(flow * step, 2))), partial_closed,
                              2.0 * t * t * xi / (1.0 - xi), bool(half[0] == -half[0]))


# -- defect eigenvector constructions ---------------------------------------

@dataclass(frozen=True)
class DeficiencySolution:
    """Exact solution of Lap u = -u on a truncated line model.

    The exact values are the scaled integers (P_n, Q_n, R_n, D_n) of the
    pair recursion at xi = a/b, with

        u(n) = Q_n / D_n,   du(n) = u(n) - u(n-1) = R_n / D_n,   D_n = d b^T(n),

    T(n) = n(n+1)/2 and d the denominator of the seed. On the half line
    (d = 1) Q_n and R_n are coprime to b for n >= 1, so these quotients are
    already in lowest terms. No field holds the rows: `u_exact` and
    `du_exact` rerun the recursion from xi and the side's share on first
    read, and `vector` builds the line graph and the floated u over it.
    `u_float` and `du_float` are int / int quotients, correctly rounded
    exactly as Fraction.__float__ rounds. The defining relations are
    checked as integer identities (exact zero) and in floats (backward-
    style relative residual).
    """

    family: str
    M: float
    xi: Fraction
    N: int
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
        """u(0..N) by coordinate, Fractions; each side's share is 1 / sides."""
        return _q_values(_side_rows(self.xi, self.N, Fraction(1, _LINES[self.family][1])))

    @cached_property
    def du_exact(self):
        """u(x) - u(x-1) for x = 1..N, Fractions."""
        rows = _side_rows(self.xi, self.N, Fraction(1, _LINES[self.family][1]))
        return tuple(Fraction(R, D) for _P, _Q, R, D in islice(rows, 1, None))

    @cached_property
    def vector(self):
        """u(|x|) on the family's line graph, built on first read."""
        graph = _LINES[self.family][0](self.M, self.N)
        x = np.arange(graph.n_vertices) - graph.truncation.origin_offset
        return EnergyVector(graph, np.array(self.u_float)[np.abs(x)])

    def to_dict(self):
        """The scalar fields and partials, xi as "a/b", and u(0..7) as u_head."""
        curves = ("energy_cumulative", "l2_cumulative", "u_float", "du_float")
        return {**record_dict(self, curves),
                "xi": str(self.xi), "u_head": list(self.u_float[:8])}


def _side_rows(xi, N, lam):
    """The scaled pair rows (P_n, Q_n, R_n, D_n), n = 0..N, of a side with share lam."""
    return islice(_scaled_pairs(xi, (lam - 1, 1)), N + 1)


def _q_values(rows):
    return tuple(Fraction(Q, D) for _P, Q, _R, D in rows)


def _energy_cumulative(terms, sides=1):
    """Energy partial sums through depth 0..N of a line whose sides all carry terms."""
    return np.concatenate([[0.0], np.cumsum(sides * terms)])


def _side(xi, N, lam):
    """Check and float the rows n = 0..N of one side, share lam, in one pass.

    The seed (p_0, q_0) = (lam - 1, 1) gives (p_1, q_1) = (lam, 1 + lam xi):
    the side takes the share lam of the vertex-0 row (1 on the half line,
    1/2 per side on the symmetric line). With xi = a/b and lam = n/d the
    seed check is d R_1 == n a Q_0 and d Q_1 == (d b + n a) Q_0, and the
    vertex-0 row (1/lam) mu(1) (u(0) - u(1)) + u(0) = 0 times n a D_1 / b
    is d (b Q_0 - Q_1) + n a Q_0 == 0.

    With mu(x) = (b/a)^x, the flux recursion mu(x+1) du(x+1) = mu(x) du(x)
    + u(x) times a^(x+1) D_(x+1) / b^(x+1) is the integer identity

        outflow_x = inflow_x + source_x,   with
        outflow_x = Q_(x+1) - b^(x+1) Q_x           (mu(x+1) du(x+1)),
        inflow_x  = a b^x outflow_(x-1)             (mu(x) du(x)),
        source_x  = a^(x+1) Q_x                     (u(x)),

    and the interior row mu(x) du(x) + mu(x+1) (u(x) - u(x+1)) + u(x) = 0,
    scaled the same way, is that identity rearranged, so one comparison
    decides both for x = 1 .. N-1. Each step forms b^(x+1) Q_x itself, not
    from the recursion's own product, with the powers of two in a and b as
    shifts. Each row is floated and checked as it comes, then dropped.

    Returns (head, seed_ok, zero_row_ok, rows_ok, monotone, u, du, terms): rows
    0 and 1, the three checks, du(n) > 0 for n >= 1, and the floats of u, du
    and the energy terms xi^n p_n^2 = R_n P_n / (D_n D_(n-1)), an array.
    """
    a, b = xi.numerator, xi.denominator
    (a_odd, sa), (b_odd, sb) = _split_two(a), _split_two(b)
    a_x = b_x = 1                   # odd parts of a^(x-1) and b^(x-1)
    head, u, du, terms = [], [], [], []
    rows_ok = monotone = True
    for x, (P, Q, R, D) in enumerate(_side_rows(xi, N, lam)):
        u.append(_float_quotient(Q, 1, D, 1))
        if x < 2:
            head.append((P, Q, R, D))
        if x:
            du.append(_float_quotient(R, 1, D, 1))
            terms.append(_float_quotient(R, P, D, D_prev))
            monotone = monotone and R > 0
            # the identity at x - 1, from outflow_(x-2) and rows x - 1 and x
            inflow = _times(outflow, a_odd * b_x, sa + sb * (x - 1)) if x > 1 else 0
            a_x *= a_odd
            b_x *= b_odd
            outflow = Q - _times(Q_prev, b_x, sb * x)
            rows_ok = rows_ok and (x == 1 or outflow == inflow + _times(Q_prev, a_x, sa * x))
        Q_prev, D_prev = Q, D
    (_, Q0, _, _), (_, Q1, R1, _) = head
    n, d = lam.numerator, lam.denominator
    seed_ok = d * R1 == n * a * Q0 and d * Q1 == (d * b + n * a) * Q0
    zero_row_ok = d * (b * Q0 - Q1) + n * a * Q0 == 0
    return head, seed_ok, zero_row_ok, rows_ok, monotone, u, du, np.array(terms)


def _l2_flag_for(u_floats, depths):
    """Square-sum growth flag: partial sums pinned against 0.9 n min^2."""
    sq = np.cumsum(np.square(u_floats))
    marks = [(d, float(sq[d])) for d in depths]
    n = len(u_floats)
    min_u = float(np.min(np.abs(u_floats)))
    divergent = sq[-1] >= 0.9 * n * min_u * min_u and min_u > 0
    return (DIVERGENT if divergent else INCONCLUSIVE), marks


def _deficiency_solution(family, M, N):
    """Defect candidate u(x) = u(|x|) on a line model, each side with share 1/sides."""
    _require_ratio(M, "M")
    _require_depth(N)
    M, sides = float(M), _LINES[family][1]
    xi = 1 / Fraction(M)
    _, seed_ok, zero_row_ok, rows_ok, monotone, u, du, terms = _side(xi, N, Fraction(1, sides))
    half = np.array(u)
    float_rel = _defect_residual(half, M, sides)

    depths = _dyadic_depths(N)
    cumulative = _energy_cumulative(terms, sides)
    energy_flag, energy_marks = tail_flag(cumulative, depths)
    l2_flag, l2_marks = _l2_flag_for(half, depths)

    a_obs = float(np.max(terms))
    bound = 1.0 + sqrt(a_obs * float(xi)) / (1.0 - sqrt(float(xi)))
    return DeficiencySolution(
        family, M, xi, N,
        seed_ok, rows_ok, zero_row_ok and rows_ok, float_rel, monotone,
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
    return _deficiency_solution(HALF_LINE_GEOM, M, N)


def build_deficiency_zline(M: float, N: int) -> DeficiencySolution:
    """Symmetric defect-eigenvector candidate on the two-sided line.

    Symmetry u(-x) = u(x) together with the vertex-0 row forces the first
    increment du(1) = (xi/2) u(0); from there the one-sided flux recursion
    propagates, which is the pair recursion from the seed
    (p_0, q_0) = (-1/2, 1), that is (p_1, q_1) = (1/2, 1 + xi/2). The
    energy verdict (FINITE, INFINITE or INCONCLUSIVE) is reported as
    evidence, never asserted.
    """
    return _deficiency_solution(LINE_GEOM_SYM, M, N)


# -- the A-B two-sided model -------------------------------------------------

@dataclass(frozen=True)
class ABDeficiencyReport:
    """Defect-candidate analysis for the two-ratio line.

    The one-sided recursions pin u(1) and u(-1) from u(0); as written, the
    combined normalization evaluates to 2, not 1, so the literal candidate
    cannot satisfy the vertex-0 row. Both the literal candidate and a
    repaired candidate with per-side scale factors summing to 1 are
    reported; nothing is silently fixed. No field holds the per-side rows
    (see DeficiencySolution): the four value tuples rerun each side's
    recursion from alpha or beta and its share on first read.
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

    literal_values_pos = cached_property(lambda self: _q_values(_side_rows(self.alpha, self.N, 1)))
    literal_values_neg = cached_property(lambda self: _q_values(_side_rows(self.beta, self.N, 1)))
    repaired_values_pos = cached_property(lambda self: _q_values(
        _side_rows(self.alpha, self.N, self.repaired_lambda_plus)))
    repaired_values_neg = cached_property(lambda self: _q_values(
        _side_rows(self.beta, self.N, self.repaired_lambda_minus)))

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


def _two_sided_energy_partials(pos_terms, neg_terms, depths):
    pos, neg = (_energy_cumulative(terms) for terms in (pos_terms, neg_terms))
    return tuple((d, float(pos[d]) + float(neg[d])) for d in depths)


def solve_ab_deficiency(A: float, B: float, N: int) -> ABDeficiencyReport:
    """Analyze the defect system on the line with ratios A right, B left."""
    if not (A > 1 and B > 1):
        raise ValueError("A and B must both be > 1")
    alpha, beta = 1 / Fraction(float(A)), 1 / Fraction(float(B))
    # the literal candidate runs each side with the whole vertex-0 row
    pos, *_, pos_terms = _side(alpha, N, Fraction(1))
    neg, *_, neg_terms = _side(beta, N, Fraction(1))
    a_f, b_f = 1 / alpha, 1 / beta

    (u0, u1), (_, um1) = _q_values(pos), _q_values(neg)
    literal_res = (a_f + b_f + 1) * u0 - a_f * u1 - b_f * um1
    # p_1 = P_1 / D_0 at each ratio; identically 1 + 1
    norm_sum = Fraction(pos[1][0], pos[0][3]) + Fraction(neg[1][0], neg[0][3])
    norm_flag = "CONSISTENT" if norm_sum == 1 else "INCONSISTENT_AS_WRITTEN"

    # the repaired candidate gives the sides shares summing to 1
    lam_p = Fraction(1, 2)
    lam_m = 1 - lam_p
    rep_pos, *_, rep_pos_terms = _side(alpha, N, lam_p)
    rep_neg, *_, rep_neg_terms = _side(beta, N, lam_m)
    (_, rep_u1), (_, rep_um1) = _q_values(rep_pos), _q_values(rep_neg)
    rep_res = (a_f + b_f + 1) * u0 - a_f * rep_u1 - b_f * rep_um1

    depths = _dyadic_depths(N)
    return ABDeficiencyReport(
        float(A), float(B), N, alpha, beta,
        u1, um1, literal_res, norm_sum, norm_flag,
        lam_p, lam_m, rep_u1, rep_um1, rep_res,
        _two_sided_energy_partials(pos_terms, neg_terms, depths),
        _two_sided_energy_partials(rep_pos_terms, rep_neg_terms, depths))


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
        return record_dict(self, ("vector",))


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
        row_mask = np.ones(n, dtype=bool)
    elif boundary == "dirichlet":
        if graph.truncation and x in graph.truncation.frontier:
            raise ValueError("the source vertex is pinned by the Dirichlet frontier")
        row_mask = graph.interior_mask
    else:
        raise ValueError(f"unknown boundary policy {boundary!r}")
    target = point_source(graph, x)
    sol, diag = solve_reduced(graph, 1.0, target, ~row_mask, np.zeros(n), tol)
    u = EnergyVector(graph, sol)
    lap = apply_laplacian(u).values
    full = sol + lap
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

    to_dict = record_dict


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
    hard_expectations_ok: bool       # the dimensions the paper gives this family
    curves: dict = field(default_factory=dict)   # coordinate-indexed arrays

    def to_dict(self):
        return record_dict(self, ("curves",))


def classify_model(family: str, M: float, N: int) -> BoundaryReport:
    """Assemble harmonic/defect evidence for a geometric line model.

    family is HALF_LINE_GEOM or LINE_GEOM_SYM; another family, or an M or
    N the line builders refuse, raises ValueError. No graph is built: the
    float evidence reads arrays of N + 1 values, none of which overflows.
    """
    if family not in _LINES:
        raise ValueError(f"classification supports the geometric line models only, "
                         f"not {family!r}")
    deficiency = _deficiency_solution(family, M, N)
    if family == HALF_LINE_GEOM:
        harm = build_harmonic_zplus(deficiency.M, N)
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
        # def_dim == 1 holds only with the exact rows and both flags
        expectations_ok = harm_dim == 0 and def_dim == 1
        extra = {}
    else:
        harm = build_harmonic_zline(deficiency.M, 1.0, N)
        harm_ok = (harm.interior_residual <= 1e-12
                   and harm.energy_partial > 0
                   and abs(harm.energy_partial - harm.energy_partial_closed)
                   <= 1e-10 * harm.energy_limit)
        harm_dim = 1 if harm_ok else 0
        def_dim = {"FINITE": 1, "INFINITE": 0}.get(deficiency.classification)
        def_hard = False
        expectations_ok = harm_ok
        extra = {"h": harm.h.tolist()}
    curves = {
        "coordinate": list(range(N + 1)),
        "u": list(deficiency.u_float),
        "du": [0.0] + list(deficiency.du_float),
        "energy_partial": list(deficiency.energy_cumulative),
        "l2_partial": list(deficiency.l2_cumulative),
        **extra,
    }
    return BoundaryReport(
        family, deficiency.M, N,
        harm_dim, True, harm.to_dict(),
        def_dim, def_hard, deficiency.to_dict(), expectations_ok, curves)


def boundary_curves_csv(report: BoundaryReport) -> str:
    """CSV of the per-coordinate curves carried by a BoundaryReport."""
    curves = report.curves
    keys = [k for k in ("coordinate", "u", "du", "h", "energy_partial",
                        "l2_partial") if k in curves]
    row = ",".join("%s" if k == "coordinate" else "%r" for k in keys) + "\n"
    return ",".join(keys) + "\n" + format_rows(row, [curves[k] for k in keys])
