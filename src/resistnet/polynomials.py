"""Exact arithmetic for the coupled polynomial pair (p_n, q_n).

The pair is generated by

    p_{n+1} = p_n + q_n
    q_{n+1} = q_n + xi^(n+1) * p_{n+1},        (p_0, q_0) = (0, 1),

in the variable xi, with integer coefficients that are kept exact (Python
ints, Fractions where rational scalars enter). The same recursion in
matrix form multiplies [[1, 1], [xi^k, 1 + xi^k]] for k = n down to 1
into the start vector (0, 1); both routes are implemented and must agree.

Values at one rational xi = a/b (lowest terms) are computed on scaled
integers rather than Fractions. With T(n) = n(n+1)/2,

    P_n = b^T(n-1) p_n(xi),   Q_n = b^T(n) q_n(xi)

are integers obeying P_{n+1} = b^n P_n + Q_n and
Q_{n+1} = b^(n+1) Q_n + a^(n+1) P_{n+1}, so no step takes a gcd (the
fraction-free idea of Bareiss, Math. Comp. 22, 1968). The powers of two
are split off once, a = a_odd 2^sa and b = b_odd 2^sb: only a_odd^n and
b_odd^n are ever multiplied, and each 2^(s n) is a shift, which costs
O(size) where a product with an O(n)-word power costs O(n size) (Brent &
Zimmermann, Modern Computer Arithmetic, 2010, section 1.3). Every float
--M is m / 2^k in lowest terms, so xi = 1/M = 2^k / m has a = 2^k, a
power of two. When b is one too (M = 2, 4, 8, ...), step n is shifts and
additions of O(n^2)-bit numbers, and N steps cost O(N^3) word operations,
not O(N^4). For n >= 1 both P_n and Q_n are coprime to b: P_1 = 1 and
Q_1 = a + b, and modulo every prime factor of b, P_{n+1} = Q_n and
Q_{n+1} = a^(n+1) P_{n+1}. So
p_n = P_n / b^T(n-1) and q_n = Q_n / b^T(n) are already in lowest terms,
and a float of either is one correctly rounded int / int division,
exactly as Fraction.__float__ computes it.

The polynomials themselves are never added coefficient by coefficient.
A polynomial f with non-negative integer coefficients below 2^w is the
integer f(2^w) (Kronecker substitution; von zur Gathen & Gerhard, Modern
Computer Algebra, section 8.4), and evaluation at xi = 2^w is a ring
homomorphism: running the scaled-integer recursion at xi = 2^w (a = 2^w,
b = 1, every step shifts and additions) yields the integers p_n(2^w),
q_n(2^w) exactly, whatever w is, and so does every sum and multiple by
xi^k formed from them, with xi^k c a shift of c by k w bits. Packing only
loses information when a coefficient reaches 2^w. The lemma that rules
this out:

    Every polynomial formed here has non-negative integer coefficients:
    p_n and q_n (by induction on the recursion, whose steps only add and
    multiply by xi^k), the running quotients 1 / prod (1 - xi^k X)^2 of
    the product representations (each division is the sweep
    c_m += xi^k c_(m-1)) and every sum of these. So each coefficient is at
    most the polynomial's value at xi = 1, and if that value is below 2^w
    the coefficients are the base-2^w digits of the value at 2^w, which
    determine them.

pair_sequence packs at the first multiple of 64 bits at or above
w = q_(n_max)(1).bit_length(): p_n(1) <= q_n(1) <= q_(n_max)(1) for
n <= n_max by induction, so every coefficient of the table is a digit,
and the digits are read as whole 64-bit words.

Each identity check compares one pair series with a side formed from the
pair: the generating-function identities, the cumulative identity of the
growth report, and the product representation

    sum_n p_n(xi) X^n
        = sum_{n>=1} xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2,

obtained by eliminating the q-series and iterating X -> xi X, with its
companion for the q-series. A check is first run at xi = 1, every shift
0. If the two sides differ there, the polynomials differ. If they agree,
every coefficient on either side is at most a value of the pair series
at 1, below 2^w for w the largest bit length among those values, and the
check is run again at xi = 2^w, where an integer comparison is a
coefficient-by-coefficient one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import exp, lcm, sqrt
from typing import Optional

import numpy as np

from .graphs import record_dict

__all__ = [
    "XiPoly", "PolyPair", "pair_sequence", "pair_values_sequence",
    "matrix_product_pair",
    "identity_P_holds", "identity_Q_holds",
    "check_identity_P", "check_identity_Q", "check_repr_P", "check_repr_Q",
    "product_exponential_discrepancy",
    "growth_bounds_report", "GrowthReport",
    "CUBE_BOUND_RATIO_THRESHOLD",
]

# A ratio 1/xi above this value guarantees the cubic upper bound on p_n.
CUBE_BOUND_RATIO_THRESHOLD = exp(sqrt(2.0 / 3.0) / exp(1.0))


class XiPoly:
    """Dense univariate polynomial in xi with exact integer coefficients.

    Coefficients are stored low degree first with no trailing zeros. The
    arithmetic on the pair is done on packed integers (see the module
    docstring); an XiPoly is the read-only, unpacked form of the result.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, XiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"XiPoly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class PolyPair:
    """The pair (p_n, q_n) at one index of the recursion."""

    n: int
    p: XiPoly
    q: XiPoly


def _packed_pairs(n_max, w):
    """The pair packed at width w: the lists p_n(2^w) and q_n(2^w), n = 0 .. n_max."""
    p, q = [], []
    for P, Q, _R, _D in islice(_scaled_pairs(1 << w), max(n_max, 0) + 1):
        p.append(P)
        q.append(Q)
    return p, q


def _unpack(value, words):
    """The base-2^(64 words) digits of value >= 0, low first, as Python ints.

    Each digit is `words` little-endian 64-bit words. numpy reads all the
    low words of one value at once; a higher word is or-ed in only over the
    slice of digits from its first to its last non-zero entry.
    """
    size = 8 * words
    raw = value.to_bytes(-(-value.bit_length() // (8 * size)) * size, "little")
    digits = np.frombuffer(raw, "<u8").reshape(-1, words)
    out = digits[:, 0].astype(object)
    for j in range(1, words):
        rows = np.flatnonzero(digits[:, j])
        if len(rows):
            wide = slice(rows[0], rows[-1] + 1)
            out[wide] |= digits[wide, j].astype(object) << (64 * j)
    return out.tolist()


def pair_sequence(n_max: int) -> list:
    """PolyPair objects for n = 0 .. n_max.

    The pair is run packed, at a width of whole 64-bit words that holds
    q_(n_max)(1), the largest coefficient sum of the table, and each
    polynomial is its integer's digits.
    """
    q_at_one = _packed_pairs(n_max, 0)[1][-1]
    words = -(-q_at_one.bit_length() // 64)
    return [PolyPair(n, XiPoly(_unpack(P, words)), XiPoly(_unpack(Q, words)))
            for n, (P, Q) in enumerate(zip(*_packed_pairs(n_max, 64 * words)))]


def _split_two(v):
    """(odd, s) with v = odd * 2^s and odd of the sign of v; (0, 0) for v = 0."""
    s = (v & -v).bit_length() - 1 if v else 0
    return v >> s, s


def _times(x, odd, shift):
    """x * odd * 2^shift: the power of two as a shift, no multiply by 1."""
    if odd != 1:
        x *= odd
    return x << shift if shift else x


def _scaled_pairs(xi, seed=(0, 1)):
    """Run the pair recursion on plain ints at rational xi = a/b.

    With a/b in lowest terms, d the least common denominator of the seed
    (p_0, q_0) and T(n) = n(n+1)/2, yields (P_n, Q_n, R_n, D_n) for
    n = 0, 1, 2, ... where

        D_n = d b^T(n),   q_n = Q_n / D_n,   p_n = P_n / D_(n-1)   (D_(-1) = D_0),
        R_n = a^n P_n,    so that xi^n p_n = q_n - q_(n-1) = R_n / D_n.

    Clearing the powers of b turns the recursion into

        P_(n+1) = b^n P_n + Q_n,   Q_(n+1) = b^(n+1) Q_n + a^(n+1) P_(n+1),

    which multiplies only by small powers of a and b and never takes a gcd.
    With a = a_odd 2^sa and b = b_odd 2^sb, only the odd parts a_odd^n and
    b_odd^n are carried as multipliers and the 2^(sa n), 2^(sb n) parts
    are shifts; a = 0 splits as (0, 0) and a negative a keeps its sign in
    a_odd. A float ratio M gives xi = 1/M with a a power of two, and when
    b is one too (M = 2) the N steps cost O(N^3) word operations.
    """
    xi = Fraction(xi)
    a_odd, sa = _split_two(xi.numerator)
    b_odd, sb = _split_two(xi.denominator)
    p0, q0 = Fraction(seed[0]), Fraction(seed[1])
    d = lcm(p0.denominator, q0.denominator)
    P, Q, D = int(p0 * d), int(q0 * d), d
    R = P
    a_n = b_n = 1       # odd parts: a^n = a_n << sa_n, b^n = b_n << sb_n
    sa_n = sb_n = 0
    while True:
        yield P, Q, R, D
        P = _times(P, b_n, sb_n) + Q
        a_n *= a_odd
        b_n *= b_odd
        sa_n += sa
        sb_n += sb
        R = _times(P, a_n, sa_n)
        Q = _times(Q, b_n, sb_n) + R
        D = _times(D, b_n, sb_n)


def _float_quotient(n1, n2, d1, d2):
    """float(n1 n2 / (d1 d2)) for ints, correctly rounded.

    For positive factors, cutting each to its leading 64 bits brackets the
    quotient between two nearby rationals. Rounding is monotone, so when
    both round to the same float the quotient does too, and the big
    products are never formed; otherwise the exact quotient is rounded.
    """
    if n1 > 0 and n2 > 0 and d1 > 0 and d2 > 0:
        c1, c2 = max(n1.bit_length() - 64, 0), max(n2.bit_length() - 64, 0)
        c3, c4 = max(d1.bit_length() - 64, 0), max(d2.bit_length() - 64, 0)
        t1, t2, t3, t4 = n1 >> c1, n2 >> c2, d1 >> c3, d2 >> c4
        num_low, num_high = t1 * t2, (t1 + (c1 > 0)) * (t2 + (c2 > 0))
        den_low, den_high = t3 * t4, (t3 + (c3 > 0)) * (t4 + (c4 > 0))
        shift = c1 + c2 - c3 - c4
        try:
            if shift >= 0:
                lo, hi = (num_low << shift) / den_high, (num_high << shift) / den_low
            else:
                lo, hi = num_low / (den_high << -shift), num_high / (den_low << -shift)
        except OverflowError:   # at the top of the float range: round exactly
            lo, hi = 0.0, None
        if lo == hi:
            return lo
    return n1 * n2 / (d1 * d2)


def pair_values_sequence(xi, n_max: int) -> list:
    """Exact values (p_n(xi), q_n(xi)) for n = 0 .. n_max at rational xi.

    Built on the scaled-integer recursion; each value is normalised once,
    on output, instead of after every arithmetic step.
    """
    out = []
    d_prev = 1
    for P, Q, _R, D in islice(_scaled_pairs(xi), max(n_max, 0) + 1):
        out.append((Fraction(P, d_prev), Fraction(Q, D)))
        d_prev = D
    return out


def matrix_product_pair(n: int, xi):
    """(p_n(xi), q_n(xi)) via the left product of 2x2 matrices, exactly.

    The k-th factor is [[1, 1], [xi^k, 1 + xi^k]]; factors apply to the
    start vector (0, 1) in order k = 1, ..., n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    top, bot = Fraction(0), Fraction(1)
    xi_pow = Fraction(1)
    for _k in range(1, n + 1):
        xi_pow *= xi
        top, bot = top + bot, xi_pow * top + (1 + xi_pow) * bot
    return top, bot


# -- the generating-function identities on packed series ----------------------

def identity_P_holds(p, q, w) -> bool:
    """X * (P + Q) == P, on the two series packed at width w."""
    return [0] + [a + b for a, b in zip(p, q[:-1])] == p


def identity_Q_holds(p, q, w) -> bool:
    """Q == 1 + X*Q + P(xi X), on the two series packed at width w.

    Substituting xi X for X multiplies the X^m coefficient by xi^m, a
    shift by m w bits.
    """
    rhs = [1 + p[0]] + [q[m - 1] + (p[m] << (m * w)) for m in range(1, len(q))]
    return rhs == q


def _holds_exactly(order, holds):
    """Whether holds(p, q, w) holds for the pair as polynomials.

    holds compares one of the pair series p, q through X^order, packed at
    width w, with a side formed from both. It runs at xi = 1 first and
    then, if it holds there, at xi = 2^w with w the largest bit length of
    a pair value at 1, where its integer comparison compares coefficients
    (the lemma in the module docstring).
    """
    p, q = _packed_pairs(order, 0)
    if not holds(p, q, 0):
        return False
    w = max(v.bit_length() for v in p + q)
    return holds(*_packed_pairs(order, w), w)


def check_identity_P(order: int) -> bool:
    return _holds_exactly(order, identity_P_holds)


def check_identity_Q(order: int) -> bool:
    return _holds_exactly(order, identity_Q_holds)


def _divide_linear(coeffs, shift, top):
    """Divide a packed series by (1 - xi^k X) in place, through coefficient top.

    shift is k w. Multiplying the quotient back by (1 - xi^k X) must give
    the series, so c_m becomes c_m + xi^k c_(m-1), sweeping m upward over
    the new values.
    """
    for m in range(1, top + 1):
        coeffs[m] += coeffs[m - 1] << shift


def _product_sum(order, n_max, first, w):
    """Coefficients through X^order, packed at width w, of the sum over
    n = 1 .. n_max of

        xi^T(k) X^n / prod_{j=first}^{k} (1 - xi^j X)^2,   k = n - 1 + first,

    with T(k) = k(k+1)/2. The running quotient gains its two new linear
    factors by two division sweeps, and each term is added straight into
    the coefficients m >= n, so no series is ever multiplied. A term with
    n > order starts past X^order and adds nothing, and the running
    quotient is only kept through X^(order-n), the part term n reads.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_max < order:
        raise ValueError("n_max must be >= order so no contributing term is skipped")
    total = [0] * (order + 1)
    running = [1] + [0] * order
    tri = first * (first - 1) // 2
    for n in range(1, order + 1):
        k = n - 1 + first
        top = order - n
        _divide_linear(running, k * w, top)
        _divide_linear(running, k * w, top)
        tri += k
        for m in range(top + 1):
            total[n + m] += running[m] << (tri * w)
    return total


def _repr_series_P(order: int, n_max: int, w: int) -> list:
    """sum_{n=1}^{n_max} xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2, packed."""
    return _product_sum(order, n_max, 0, w)


def _repr_series_Q(order: int, n_max: int, w: int) -> list:
    """(1/(1-X)) (1 + sum_{n=1}^{n_max} xi^(n(n+1)/2) X^n / prod_{k=1}^{n} (1 - xi^k X)^2), packed."""
    coeffs = _product_sum(order, n_max, 1, w)
    coeffs[0] = 1
    _divide_linear(coeffs, 0, order)      # 1/(1 - X): a prefix sum
    return coeffs


def check_repr_P(order: int, n_max: int) -> bool:
    """Verify the product representation of the p-series, exactly.

    The terms xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2 for
    n = 1 .. n_max are built by dividing out one linear factor at a time,
    each a single sweep c_m += xi^k c_(m-1) over the packed coefficients,
    and their sum is compared with the p-series coefficient by coefficient.
    n_max must reach order, so no term that touches a compared
    coefficient is left out.
    """
    return _holds_exactly(order, lambda p, _q, w: _repr_series_P(order, n_max, w) == p)


def check_repr_Q(order: int, n_max: int) -> bool:
    """Verify the companion representation of the q-series, exactly.

    Q == (1/(1-X)) * (1 + sum_{n>=1} xi^(n(n+1)/2) X^n
                           / prod_{k=1}^{n} (1 - xi^k X)^2),

    built by the same division sweeps as check_repr_P; the final 1/(1-X)
    is the sweep with k = 0, a prefix sum. The result is compared with
    the q-series coefficient by coefficient.
    """
    return _holds_exactly(order, lambda _p, q, w: _repr_series_Q(order, n_max, w) == q)


def product_exponential_discrepancy(xi: float, x: float, k_terms: int = 60):
    """Compare prod_k (1 - xi^k x) with exp(-xi x / (1 - x)) numerically.

    The two expressions agree only approximately, and only for small xi;
    this diagnostic returns (product, exponential, absolute difference)
    so callers can report, not assert, the discrepancy.
    """
    prod = 1.0
    for k in range(1, k_terms + 1):
        prod *= 1.0 - (xi ** k) * x
    expo = exp(-xi * x / (1.0 - x))
    return prod, expo, abs(prod - expo)


@dataclass(frozen=True)
class GrowthReport:
    xi: Fraction
    n_max: int
    lower_linear_ok: bool          # n <= p_n(xi) for all n
    cube_hypothesis_holds: bool    # 1/xi above the guaranteed-cubic threshold
    cube_bound_ok: Optional[bool]  # p_n(xi) <= n^3, evaluated when it applies
    smallest_exponent: Optional[int]  # smallest m <= 12 with the paired bounds
    cumulative_identity_ok: bool   # p_n == 1 + sum_{x<n} q_x as polynomials
    slope_fit: float               # least-squares slope of p_n(xi) against n
    slope_reference: float         # sqrt(xi) / (1 - sqrt(xi)), diagnostic only

    def to_dict(self):
        return {**record_dict(self), "xi": str(self.xi)}


def _cumulative_identity_holds(p, q, w) -> bool:
    """p_n == 1 + q_1 + ... + q_(n-1) for n = 1 .. order, on packed series."""
    return list(accumulate(q[1:-1], initial=1)) == p[1:]


def growth_bounds_report(xi, n_max: int) -> GrowthReport:
    """Exact growth checks for p_n, q_n at one rational xi.

    Checks n <= p_n(xi) for every n; the cubic upper bound whenever the
    ratio 1/xi clears the threshold that guarantees it (otherwise the
    smallest integer exponent m <= 12 making both paired power bounds
    hold is searched and reported); and the telescoped cumulative-sum
    identity p_n = 1 + q_1 + ... + q_{n-1} at the polynomial level, on
    the packed pair. The slope fields are diagnostics: the linear-growth
    constant is existential, so no pass/fail is attached.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    values = pair_values_sequence(xi, n_max)

    lower_ok = all(values[n][0] >= n for n in range(1, n_max + 1))

    ratio = 1 / xi
    hypothesis = float(ratio) > CUBE_BOUND_RATIO_THRESHOLD
    cube_ok = None
    smallest_m = None
    if hypothesis:
        cube_ok = all(values[n][0] <= n ** 3 for n in range(1, n_max + 1))
    else:
        for m in range(1, 13):
            if all(values[n][0] <= n ** m
                   and values[n][1] <= (n + 1) ** m - n ** m
                   for n in range(1, n_max + 1)):
                smallest_m = m
                break

    cumsum_ok = _holds_exactly(n_max, _cumulative_identity_holds)

    ns = list(range(1, n_max + 1))
    ps = [float(values[n][0]) for n in ns]
    slope = sum(n * p for n, p in zip(ns, ps)) / sum(n * n for n in ns)
    ref = sqrt(float(xi)) / (1.0 - sqrt(float(xi)))
    return GrowthReport(xi, n_max, lower_ok, hypothesis, cube_ok, smallest_m,
                        cumsum_ok, slope, ref)
