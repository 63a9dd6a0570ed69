"""Harmonic and defect-eigenvector constructions for the line models.

Everything here produces constructive evidence, not numerics-only rank
estimates: each claimed basis vector comes with its defining relations
checked in exact rational arithmetic where the construction is exact, a
backward-style float residual for the floated copy, and a certified
energy verdict. Truncation frontier vertices are excluded from every
pointwise identity.

The verdict is a lemma on the last exact row. A side with share lam runs
p_k = p_(k-1) + q_(k-1), q_k = q_(k-1) + xi^k p_k from (p_0, q_0) =
(lam - 1, 1), 0 < xi = 1/M < 1, so p_k, q_k > 0 for k >= 1 (p_1 = lam and
each step adds positive terms). Fix n >= 1; S0 = xi^(n+1)/(1-xi) and
S1 = xi^(n+1)/(1-xi)^2.

Lemma. If S1 < 1, then Q = (q_n + p_n S0)/(1 - S1) bounds q_m for all
m >= n, and with p = p_n the energy tail sum_(k>n) xi^k p_k^2 is at most
xi^n [p^2 xi/(1-xi) + 2pQ xi/(1-xi)^2 + Q^2 xi(1+xi)/(1-xi)^3].

Proof. q_n <= Q. If q_j <= Q for n <= j < m, then p_k <= p_n + (k-n) Q for
n <= k <= m, so q_m = q_n + sum_(k=n+1..m) xi^k p_k <= q_n + p_n S0 + Q S1
= Q, as sum_(j>=1) xi^(n+j) = S0 and sum_(j>=1) j xi^(n+j) = S1. The tail
is at most sum_(j>=1) xi^(n+j) (p + jQ)^2; sum j^2 xi^j = xi(1+xi)/(1-xi)^3.

S1 falls with n, so from certified_depth n0, the least n >= 1 with
xi^(n+1) < (1-xi)^2 (2 at M = 2, 5 at 1.5, 50 at 1.1, 927 at 1.01), the
energy is FINITE, in [E_N, E_N + sides * tail], and u(m) = q_m rises to a
limit in [q_N, Q]; below n0 the verdict is NEEDS_DEPTH. Every M > 1 closes,
so no line model has infinite energy. The square sum diverges: q_m >= 1.

The lemma has two consumers, both reading the one checked side pass
(_side): classify's verdict reads it at row N, and q_limit reads the half
line's pass (lam = 1, the pair from (0, 1)) row by row until [q_n, Q] is as
narrow as asked. The width (Q - q_n)/q_n exceeds S1/(1 - S1), so a relative
width tol needs S1 < tol/(1 + tol), and q_limit knows that depth, and the
size of the row there, before the pass runs.

Rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4;
u = 2^-53). p_N and q_N are floated correctly rounded and widened up one
ulp; Q and the tail grow with both, are formed in Fractions at the exact xi
and rounded up. E_N is the sequential np.cumsum of N correctly rounded
positive terms, so the exact partial sum is in E_N (1 -+ gamma), gamma =
(N+1)u/(1-(N+1)u), widened by (N+1) 2^-1070 for terms in the subnormal
range. Each end is rounded outward; one past the float range is null.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import ceil, inf, isfinite, isqrt, log, log1p, nextafter
from sys import float_info
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .energy import EnergyVector, apply_laplacian, energy, project_fin_harm
from .graphs import (
    HALF_LINE_GEOM, LINE_GEOM_SYM, WeightedGraph, _require_depth, _require_ratio,
    build_half_line, build_sym_line, format_rows, record_dict,
)
from .linsolve import point_source, solve_reduced
from .polynomials import _float_quotient, _scaled_pairs, _split_two, _times

HARM_TRIVIAL = "HARM_TRIVIAL"
FINITE = "FINITE"
NEEDS_DEPTH = "NEEDS_DEPTH"

# classify's exact rows grow like n**2 bits, so its time grows like N**3: at
# this limit --M 2 takes 4-7 s at 44 MB peak RSS on a 2-CPU x86-64 host (an
# odd denominator in 1/M, as at --M 1.5, far longer). certified_depth is
# checked exactly to here; past it, it is CLASSIFY_N_MAX + 1, a lower bound
CLASSIFY_N_MAX = 4096

# q_limit runs no row past this many bits. Row n of the pair at xi = a/b
# holds D_n = b^T(n), T(n) = n(n+1)/2, so the rows are sized before the pass
# runs. On a 2-CPU x86-64 host the slowest runs to the last row allowed took
# about 1 s at 30 MB peak RSS (xi = 5/7, 590 rows; a 27-bit odd b, 196
# rows), and 9/10 at tol 1e-12 stops at row 338, about 229,000 bits; at
# 2^20 bits the same runs took 5 s
Q_LIMIT_BITS_MAX = 1 << 19


def _dyadic_depths(n):
    return sorted({max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n})


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
    energy_verdict: str             # FINITE or NEEDS_DEPTH
    certified_depth: int            # n0: the verdict is FINITE from N = n0 on
    energy_enclosure: tuple         # [lo, hi]; hi is null below n0
    u_limit_enclosure: tuple        # [q_N, Q] encloses lim u(n); Q is null below n0
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
        """The scalar fields and enclosures, xi as "a/b", and u(0..7) as u_head."""
        curves = ("energy_cumulative", "l2_cumulative", "u_float", "du_float")
        return {**record_dict(self, curves),
                "xi": str(self.xi), "u_head": list(self.u_float[:8])}

    # tests/test_acceptance.py reads the verdict in the words of the flags it replaced
    energy_partials = property(lambda s: tuple(
        (d, s.energy_cumulative[d]) for d in _dyadic_depths(s.N)))
    energy_flag = property(lambda s: "CONVERGENT" if s.energy_verdict == FINITE else NEEDS_DEPTH)
    l2_flag = property(lambda s: "DIVERGENT" if s.monotone_ok else "UNCHECKED")


def _side_rows(xi, N, lam):
    """The scaled pair rows (P_n, Q_n, R_n, D_n), n = 0..N, of a side with share lam."""
    return islice(_scaled_pairs(xi, (lam - 1, 1)), N + 1)


def _q_values(rows):
    return tuple(Fraction(Q, D) for _P, Q, _R, D in rows)


def _energy_cumulative(terms, sides=1):
    """Energy partial sums through depth 0..N of a line whose sides all carry terms."""
    return np.concatenate([[0.0], np.cumsum(sides * terms)])


class _SideRow(NamedTuple):
    """Row n >= 1 of a side pass: u(n), du(n) = u(n) - u(n-1) and the energy
    term xi^n p_n^2 as floats, the checks through row n, and the exact P_n and
    D_(n-1) that p_n is floated from."""

    u: float
    du: float
    term: float
    seed_ok: bool
    zero_row_ok: bool
    rows_ok: bool       # the flux identity at x = 1 .. n-1
    monotone: bool      # du(x) > 0 for x = 1 .. n
    P: int
    D_prev: int

    @property
    def p(self):
        """p_n = P_n / D_(n-1), floated on demand: only the rows the lemma reads need it."""
        return _float_quotient(self.P, 1, self.D_prev, 1)


def _side(xi, lam):
    """Check and float the rows of one side, share lam, in one streaming pass.

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
    decides both for x = 1 .. n-1. Each step forms b^(x+1) Q_x itself, not
    from the recursion's own product, with the powers of two in a and b as
    shifts.

    Yields a _SideRow for n = 1, 2, 3, ... without end; row 0 is the seed,
    u(0) = q_0 = 1. Each row is checked and floated as it comes, then
    dropped, so a consumer that keeps the floats alone holds two scaled rows.
    """
    a, b = xi.numerator, xi.denominator
    n, d = lam.numerator, lam.denominator
    (a_odd, sa), (b_odd, sb) = _split_two(a), _split_two(b)
    a_x = b_x = 1                   # odd parts of a^(x-1) and b^(x-1)
    rows = _scaled_pairs(xi, (lam - 1, 1))
    _P, Q0, _R, D_prev = next(rows)
    Q_prev = Q0
    rows_ok = monotone = True
    for x, (P, Q, R, D) in enumerate(rows, 1):
        if x == 1:
            seed_ok = d * R == n * a * Q0 and d * Q == (d * b + n * a) * Q0
            zero_row_ok = d * (b * Q0 - Q) + n * a * Q0 == 0
        monotone = monotone and R > 0
        # the identity at x - 1, from outflow_(x-2) and rows x - 1 and x
        inflow = _times(outflow, a_odd * b_x, sa + sb * (x - 1)) if x > 1 else 0
        a_x *= a_odd
        b_x *= b_odd
        outflow = Q - _times(Q_prev, b_x, sb * x)
        rows_ok = rows_ok and (x == 1 or outflow == inflow + _times(Q_prev, a_x, sa * x))
        yield _SideRow(_float_quotient(Q, 1, D, 1), _float_quotient(R, 1, D, 1),
                       _float_quotient(R, P, D, D_prev),
                       seed_ok, zero_row_ok, rows_ok, monotone, P, D_prev)
        Q_prev, D_prev = Q, D


def _head_and_terms(xi, N, lam):
    """Rows 0 and 1 of a side with share lam, exact, and its energy terms
    xi^n p_n^2, n = 1..N, an array."""
    return list(_side_rows(xi, 1, lam)), np.array([row.term for row in islice(_side(xi, lam), N)])


def _rounded(x, up):
    """The float next to the Fraction x above it (up) or below, None past the float range."""
    try:
        f = float(x)
    except OverflowError:
        return None
    if Fraction(f) < x if up else Fraction(f) > x:
        f = nextafter(f, inf if up else -inf)
    return f if isfinite(f) else None


def _closes(xi, n, s=1):
    """S1 < s at depth n >= 1, that is xi^(n+1) < s (1 - xi)^2, in integers."""
    a, b = xi.numerator, xi.denominator
    s = Fraction(s)
    return a ** (n + 1) * s.denominator < s.numerator * (b - a) ** 2 * b ** (n - 1)


def _least_depth(xi, limit, s=1):
    """The least n >= 1 with S1 < s, from logs, checked exactly at n and n - 1;
    past limit it is limit + 1, a lower bound.

    log(xi) is log1p of -(b - a)/b, a correctly rounded int quotient, so it
    keeps its digits at any size of a and b as xi nears 1.
    """
    a, b = xi.numerator, xi.denominator
    r = (b - a) / b
    guess = (log(s) + 2 * (log(b - a) - log(b))) / log1p(-r) if r else inf
    n = max(1, ceil(guess) - 1) if guess <= limit else limit + 1
    while n <= limit and not _closes(xi, n, s):
        n += 1
    while n > 1 and _closes(xi, n - 1, s):
        n -= 1
    return n


def _certified_depth(xi, N):
    """n0, the least n >= 1 with xi^(n+1) < (1 - xi)^2; past max(N,
    CLASSIFY_N_MAX) it is that limit + 1, a lower bound."""
    return _least_depth(xi, max(N, CLASSIFY_N_MAX))


def _limit_bound(xi, n, p, q):
    """The lemma's bound on every q_m, m >= n, at a row n where S1 < 1.

    p_n and q_n come as floats, correctly rounded, and are widened up one
    ulp; Q = (q + p S0)/(1 - S1) is formed in Fractions at the exact xi.
    Returns (p, Q, Q rounded up), the widened p and Q exact, the rounded Q
    None past the float range.
    """
    p, q = Fraction(nextafter(p, inf)), Fraction(nextafter(q, inf))
    r = 1 - xi
    S0 = xi ** (n + 1) / r
    Q = (q + p * S0) / (1 - S0 / r)
    return p, Q, _rounded(Q, up=True)


def _energy_verdict(xi, N, sides, p, q, E):
    """(verdict, n0, energy enclosure, u-limit enclosure) from p_N, q_N and the
    partial energy E of row N as the side kernel floats them (module docstring)."""
    n0 = _certified_depth(xi, N)
    gamma = Fraction(N + 1, 2**53 - (N + 1))
    allowance = Fraction(N + 1, 2**1070)
    energy_lo = _rounded(Fraction(E) * (1 - gamma) - allowance, up=False)
    q_lo = nextafter(q, 0.0)
    if n0 > N:
        return NEEDS_DEPTH, n0, (energy_lo, None), (q_lo, None)
    p, Q, Q_up = _limit_bound(xi, N, p, q)
    r = 1 - xi
    tail = xi ** N * (p * p * xi / r + 2 * p * Q * xi / r ** 2 + Q * Q * xi * (1 + xi) / r ** 3)
    energy_hi = Fraction(E) * (1 + gamma) + allowance + sides * tail
    return FINITE, n0, (energy_lo, _rounded(energy_hi, up=True)), (q_lo, Q_up)


class QLimitError(RuntimeError):
    def __init__(self, message, n_reached, last_value, last_increment):
        super().__init__(message)
        self.n_reached = n_reached
        self.last_value = last_value
        self.last_increment = last_increment


@dataclass(frozen=True)
class QLimitResult:
    value: float             # q_n(xi) at the stopping row; nextafter(value, 0) is below lim q_n
    n_terms: int
    monotone_ok: bool
    above_one_ok: bool
    upper_bound: float       # the lemma's Q at row n_terms, rounded up
    within_bound: bool       # value <= upper_bound


def q_limit(xi, tol: float = 1e-12) -> QLimitResult:
    """Enclose lim q_n(xi) to a relative width tol, certified.

    Runs the half line's checked side pass at xi (share 1, the pair from
    (0, 1)) and stops at the first row n, from the least depth where
    S1 < tol/(1 + tol), at which the lemma's Q (module docstring), rounded
    up, is within tol * value of value = q_n; so [nextafter(value, 0),
    upper_bound] encloses the limit. monotone_ok is the pass's exact check
    du > 0 through row n; above_one_ok adds its seed check, u(1) = 1 + xi,
    as u(0) = 1.

    tol must be finite and > 0. QLimitError is raised before the pass runs
    when the row at that least depth could hold more than Q_LIMIT_BITS_MAX
    bits (n_reached 0), when the floats of a row leave the float range, and
    after the last row within that budget.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if not 0 < tol < inf:
        raise ValueError(f"tol must be finite and > 0 (got {tol!r}); "
                         "it is the enclosure's relative width")
    t = Fraction(tol)
    b_bits = xi.denominator.bit_length()
    # row n holds D_n = b^T(n), about T(n) b_bits bits; row n_fit is the last
    # within the budget. An exact check of a depth n compares integers of
    # about n b_bits bits, so the depth is found exactly up to k
    k = Q_LIMIT_BITS_MAX // b_bits
    n_fit = (isqrt(8 * k + 1) - 1) // 2
    depth = _least_depth(xi, k, t / (1 + t))
    if depth > n_fit:
        raise QLimitError(
            f"a relative width of {tol:g} needs n >= {depth}, past n = {n_fit}, "
            f"the last row within {Q_LIMIT_BITS_MAX} bits", 0, 1.0, 0.0)
    rows = _side(xi, Fraction(1))
    value, increment = 1.0, 0.0
    for n in range(1, n_fit + 1):
        try:
            row = next(rows)
            upper = _limit_bound(xi, n, row.p, row.u)[2] if n >= depth else None
        except OverflowError as exc:
            raise QLimitError(
                f"the terms of q_n({xi}) leave the float range (max {float_info.max:g}) "
                f"at n = {n}, before the enclosure narrows to {tol:g}",
                n, value, increment) from exc
        value, increment = row.u, row.du
        if upper is not None and upper - value <= tol * value:
            return QLimitResult(value, n, row.monotone, row.monotone and row.seed_ok,
                                upper, value <= upper)
    raise QLimitError(f"no enclosure of relative width {tol:g} by n = {n_fit}, the last row "
                      f"within {Q_LIMIT_BITS_MAX} bits", n_fit, value, increment)


def _deficiency_solution(family, M, N):
    """Defect candidate u(x) = u(|x|) on a line model, each side with share 1/sides."""
    _require_ratio(M, "M")
    _require_depth(N)
    M, sides = float(M), _LINES[family][1]
    xi = 1 / Fraction(M)
    u, du, terms = [1.0], [], []            # u(0) = q_0 = 1
    for row in islice(_side(xi, Fraction(1, sides)), N):
        u.append(row.u)
        du.append(row.du)
        terms.append(row.term)
    half = np.array(u)
    float_rel = _defect_residual(half, M, sides)
    cumulative = _energy_cumulative(np.array(terms), sides)
    verdict, n0, energy_box, u_box = _energy_verdict(xi, N, sides, row.p, u[-1], cumulative[-1])
    return DeficiencySolution(
        family, M, xi, N,
        row.seed_ok, row.rows_ok, row.zero_row_ok and row.rows_ok, float_rel, row.monotone,
        verdict, n0, energy_box, u_box,
        tuple(float(v) for v in cumulative),
        tuple(float(v) for v in np.cumsum(np.square(half))),
        tuple(u), tuple(du))


def build_deficiency_zplus(M: float, N: int) -> DeficiencySolution:
    """Defect eigenvector u(n) = q_n(xi) on the geometric half line.

    Exactness: the vertex-0 relation u(1) = (1 + xi) u(0), the flux
    recursion mu(x+1) du(x+1) = mu(x) du(x) + u(x), and the interior rows
    of Lap u = -u all hold as integer identities of the scaled values. The
    energy is certified FINITE from N = certified_depth on; the square sums
    diverge, since u >= 1.
    """
    return _deficiency_solution(HALF_LINE_GEOM, M, N)


def build_deficiency_zline(M: float, N: int) -> DeficiencySolution:
    """Symmetric defect-eigenvector candidate on the two-sided line.

    Symmetry u(-x) = u(x) together with the vertex-0 row forces the first
    increment du(1) = (xi/2) u(0); from there the one-sided flux recursion
    propagates, which is the pair recursion from the seed
    (p_0, q_0) = (-1/2, 1), that is (p_1, q_1) = (1/2, 1 + xi/2). Its
    energy verdict is FINITE or NEEDS_DEPTH, as on the half line.
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
    pos, pos_terms = _head_and_terms(alpha, N, Fraction(1))
    neg, neg_terms = _head_and_terms(beta, N, Fraction(1))
    a_f, b_f = 1 / alpha, 1 / beta

    (u0, u1), (_, um1) = _q_values(pos), _q_values(neg)
    literal_res = (a_f + b_f + 1) * u0 - a_f * u1 - b_f * um1
    # p_1 = P_1 / D_0 at each ratio; identically 1 + 1
    norm_sum = Fraction(pos[1][0], pos[0][3]) + Fraction(neg[1][0], neg[0][3])
    norm_flag = "CONSISTENT" if norm_sum == 1 else "INCONSISTENT_AS_WRITTEN"

    # the repaired candidate gives the sides shares summing to 1
    lam_p = Fraction(1, 2)
    lam_m = 1 - lam_p
    rep_pos, rep_pos_terms = _head_and_terms(alpha, N, lam_p)
    rep_neg, rep_neg_terms = _head_and_terms(beta, N, lam_m)
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
    """Solution of (I + Lap) u = delta_x; the gate is the backward residual in diagnostics."""

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

    def_dim counts the symmetric candidate: 0 when its exact rows fail, 1 when
    they hold, rise and the energy is FINITE, else None, never a guess. It is
    hard on the half line; the symmetric line's odd solution is not counted.
    """
    if family not in _LINES:
        raise ValueError(f"classification supports the geometric line models only, "
                         f"not {family!r}")
    deficiency = _deficiency_solution(family, M, N)
    if not deficiency.interior_residual_exact_zero:
        def_dim = 0
    elif deficiency.monotone_ok and deficiency.energy_verdict == FINITE:
        def_dim = 1
    else:
        def_dim = None
    if family == HALF_LINE_GEOM:
        harm = build_harmonic_zplus(deficiency.M, N)
        harm_dim = 0 if harm.verdict == HARM_TRIVIAL else 1
        expectations_ok = harm_dim == 0 and def_dim == 1
        extra = {}
    else:
        harm = build_harmonic_zline(deficiency.M, 1.0, N)
        harm_ok = (harm.interior_residual <= 1e-12
                   and harm.energy_partial > 0
                   and abs(harm.energy_partial - harm.energy_partial_closed)
                   <= 1e-10 * harm.energy_limit)
        harm_dim = 1 if harm_ok else 0
        expectations_ok = harm_ok
        extra = {"h": harm.h.tolist()}
    def_hard = family == HALF_LINE_GEOM and def_dim is not None
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
