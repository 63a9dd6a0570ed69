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

The module also provides truncated formal power series in a second
variable X whose coefficients are polynomials in xi, used to verify the
generating-function identities satisfied by the pair, including the
product representation

    sum_n p_n(xi) X^n
        = sum_{n>=1} xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2,

obtained by eliminating the q-series and iterating the substitution
X -> xi X. The right-hand side is built without multiplying series:
dividing by (1 - xi^k X) is one upward sweep c_m += xi^k c_(m-1) over the
coefficients, each squared factor is two such sweeps on a running
quotient, and each term xi^T X^n times that quotient is added straight
into the coefficients from X^n on. The sum is then compared exactly,
coefficient by coefficient, with the series of the pair itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import exp, inf, lcm, sqrt
from typing import Optional, Sequence

from .graphs import record_dict

__all__ = [
    "XiPoly", "PolyPair", "FormalSeries", "SEED_PAIR",
    "recursion_step", "pair_sequence", "pair_values_sequence",
    "matrix_product_pair", "genfunc_P", "genfunc_Q",
    "identity_P_holds", "identity_Q_holds",
    "check_identity_P", "check_identity_Q", "check_repr_P", "check_repr_Q",
    "product_exponential_discrepancy",
    "growth_bounds_report", "GrowthReport",
    "q_limit", "QLimitResult", "QLimitError",
    "CUBE_BOUND_RATIO_THRESHOLD",
]

# A ratio 1/xi above this value guarantees the cubic upper bound on p_n.
CUBE_BOUND_RATIO_THRESHOLD = exp(sqrt(2.0 / 3.0) / exp(1.0))


class XiPoly:
    """Dense univariate polynomial in xi with exact coefficients.

    Coefficients are stored low degree first with no trailing zeros;
    plain ints are kept as ints, rational coefficients as Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # an exact type test: the isinstance check of the Fraction ABC costs
        # about ten times as much, on every coefficient of every polynomial
        coeffs = [int(c) if type(c) is Fraction and c.denominator == 1 else c
                  for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls((0,) * power + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return XiPoly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XiPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return XiPoly(out)

    def scale(self, factor):
        return XiPoly([c * factor for c in self.coeffs])

    def shift(self, power):
        """Multiply by xi**power."""
        if self.is_zero():
            return self
        return XiPoly((0,) * power + self.coeffs)

    def __call__(self, xi):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * xi + c
        return acc

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


SEED_PAIR = PolyPair(0, XiPoly.zero(), XiPoly.one())


def recursion_step(pair: PolyPair) -> PolyPair:
    """Advance (p_n, q_n) to (p_{n+1}, q_{n+1}), exactly."""
    p_next = pair.p + pair.q
    q_next = pair.q + p_next.shift(pair.n + 1)
    return PolyPair(pair.n + 1, p_next, q_next)


def pair_sequence(n_max: int) -> list:
    """PolyPair objects for n = 0 .. n_max."""
    out = [SEED_PAIR]
    for _ in range(n_max):
        out.append(recursion_step(out[-1]))
    return out


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


# -- truncated formal power series in X with XiPoly coefficients ------------

class FormalSeries:
    """Power series in X truncated at a fixed order, exact coefficients.

    Operations never combine series of different truncation orders; call
    truncate() explicitly when mixing.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[XiPoly]):
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order):
        return cls(order, tuple(XiPoly.zero() for _ in range(order + 1)))

    @classmethod
    def one(cls, order):
        return cls(order, (XiPoly.one(),) + tuple(XiPoly.zero() for _ in range(order)))

    @classmethod
    def from_coeffs(cls, order, coeffs):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [XiPoly.zero()] * (order + 1 - len(coeffs))
        return cls(order, coeffs)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError(
                f"mixed truncation orders {self.order} and {other.order}; "
                "retruncate explicitly")

    def truncate(self, new_order):
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return FormalSeries(new_order, self.coeffs[: new_order + 1])

    def __add__(self, other):
        self._check(other)
        return FormalSeries(self.order,
                            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return FormalSeries(self.order,
                            [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, poly: XiPoly):
        return FormalSeries(self.order, [c * poly for c in self.coeffs])

    def mul_x(self, j=1):
        """Multiply by X**j."""
        if j > self.order:
            return FormalSeries.zero(self.order)
        coeffs = (XiPoly.zero(),) * j + self.coeffs[: self.order + 1 - j]
        return FormalSeries(self.order, coeffs)

    def substitute_scaled_x(self, power=1):
        """Substitute xi**power * X for X: coefficient k gains xi^(k*power)."""
        return FormalSeries(self.order,
                            [c.shift(k * power) for k, c in enumerate(self.coeffs)])

    def __eq__(self, other):
        return (isinstance(other, FormalSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"FormalSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def genfunc_P(order: int) -> FormalSeries:
    """Series whose X^n coefficient is p_n (zero constant term)."""
    pairs = pair_sequence(order)
    return FormalSeries(order, [pair.p for pair in pairs])


def genfunc_Q(order: int) -> FormalSeries:
    """Series whose X^n coefficient is q_n (constant term 1)."""
    pairs = pair_sequence(order)
    return FormalSeries(order, [pair.q for pair in pairs])


def identity_P_holds(series_p: FormalSeries, series_q: FormalSeries) -> bool:
    """X * (P + Q) == P, coefficient by coefficient."""
    return (series_p + series_q).mul_x(1) == series_p


def identity_Q_holds(series_p: FormalSeries, series_q: FormalSeries) -> bool:
    """Q == 1 + X*Q + P(xi X), coefficient by coefficient."""
    rhs = (FormalSeries.one(series_q.order)
           + series_q.mul_x(1)
           + series_p.substitute_scaled_x(1))
    return rhs == series_q


def check_identity_P(order: int) -> bool:
    return identity_P_holds(genfunc_P(order), genfunc_Q(order))


def check_identity_Q(order: int) -> bool:
    return identity_Q_holds(genfunc_P(order), genfunc_Q(order))


def _divide_linear(coeffs, k, top):
    """Divide a series by (1 - xi^k X) in place, through coefficient top.

    Multiplying the quotient back by (1 - xi^k X) must give the series, so
    c_m becomes c_m + xi^k c_(m-1), sweeping m upward over the new values.
    """
    for m in range(1, top + 1):
        coeffs[m] = coeffs[m] + coeffs[m - 1].shift(k)


def _product_sum(order, n_max, first):
    """Coefficients through X^order of the sum over n = 1 .. n_max of

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
    total = [XiPoly.zero()] * (order + 1)
    running = [XiPoly.one()] + [XiPoly.zero()] * order
    tri = first * (first - 1) // 2
    for n in range(1, order + 1):
        k = n - 1 + first
        top = order - n
        _divide_linear(running, k, top)
        _divide_linear(running, k, top)
        tri += k
        for m in range(top + 1):
            total[n + m] = total[n + m] + running[m].shift(tri)
    return total


def _repr_series_P(order: int, n_max: int) -> FormalSeries:
    """sum_{n=1}^{n_max} xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2."""
    return FormalSeries(order, _product_sum(order, n_max, 0))


def _repr_series_Q(order: int, n_max: int) -> FormalSeries:
    """(1/(1-X)) (1 + sum_{n=1}^{n_max} xi^(n(n+1)/2) X^n / prod_{k=1}^{n} (1 - xi^k X)^2)."""
    coeffs = _product_sum(order, n_max, 1)
    coeffs[0] = XiPoly.one()
    _divide_linear(coeffs, 0, order)      # 1/(1 - X): a prefix sum
    return FormalSeries(order, coeffs)


def check_repr_P(order: int, n_max: int) -> bool:
    """Verify the product representation of the p-series, exactly.

    The terms xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2 for
    n = 1 .. n_max are built by dividing out one linear factor at a time,
    each a single sweep c_m += xi^k c_(m-1) over the coefficients, and
    their sum is compared with genfunc_P coefficient by coefficient.
    n_max must reach order, so no term that touches a compared
    coefficient is left out.
    """
    return _repr_series_P(order, n_max) == genfunc_P(order)


def check_repr_Q(order: int, n_max: int) -> bool:
    """Verify the companion representation of the q-series, exactly.

    Q == (1/(1-X)) * (1 + sum_{n>=1} xi^(n(n+1)/2) X^n
                           / prod_{k=1}^{n} (1 - xi^k X)^2),

    built by the same division sweeps as check_repr_P; the final 1/(1-X)
    is the sweep with k = 0, a prefix sum. The result is compared with
    genfunc_Q coefficient by coefficient.
    """
    return _repr_series_Q(order, n_max) == genfunc_Q(order)


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


def growth_bounds_report(xi, n_max: int, pairs=None) -> GrowthReport:
    """Exact growth checks for p_n, q_n at one rational xi.

    Checks n <= p_n(xi) for every n; the cubic upper bound whenever the
    ratio 1/xi clears the threshold that guarantees it (otherwise the
    smallest integer exponent m <= 12 making both paired power bounds
    hold is searched and reported); and the telescoped cumulative-sum
    identity p_n = 1 + q_1 + ... + q_{n-1} at the polynomial level. The
    slope fields are diagnostics: the linear-growth constant is
    existential, so no pass/fail is attached. pairs, if given, is
    pair_sequence(n_max), already built by the caller.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    if pairs is None:
        pairs = pair_sequence(n_max)
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

    cumsum_ok = True
    acc = XiPoly.one()
    for n in range(1, n_max + 1):
        if pairs[n].p != acc:
            cumsum_ok = False
            break
        acc = acc + pairs[n].q

    ns = list(range(1, n_max + 1))
    ps = [float(values[n][0]) for n in ns]
    slope = sum(n * p for n, p in zip(ns, ps)) / sum(n * n for n in ns)
    ref = sqrt(float(xi)) / (1.0 - sqrt(float(xi)))
    return GrowthReport(xi, n_max, lower_ok, hypothesis, cube_ok, smallest_m,
                        cumsum_ok, slope, ref)


class QLimitError(RuntimeError):
    def __init__(self, message, n_reached, last_value, last_increment):
        super().__init__(message)
        self.n_reached = n_reached
        self.last_value = last_value
        self.last_increment = last_increment


@dataclass(frozen=True)
class QLimitResult:
    value: float             # q_n(xi) at the stopping index
    n_terms: int
    monotone_ok: bool
    above_one_ok: bool
    increment_max: float     # A = max over the run of xi^n p_n(xi)^2
    upper_bound: float       # 1 + sqrt(A xi) / (1 - sqrt(xi))
    within_bound: bool


def q_limit(xi, tol: float = 1e-12, max_n: int = 5000) -> QLimitResult:
    """Iterate q_n(xi) exactly until the relative increment drops below tol.

    The increments q_n - q_(n-1) = xi^n p_n(xi) are positive, so the
    sequence increases; both that and q_n > 1 are asserted on every step
    rather than assumed, as identities of the scaled integers (q_n > q_(n-1)
    is Q_n > b^n Q_(n-1) and q_n > 1 is Q_n > D_n). Since every increment
    is positive, tol must be > 0 to be reachable, and finite to iterate
    past the first term.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if not 0 < tol < inf:
        raise ValueError(f"tol must be finite and > 0 (got {tol!r}); the increments are positive")
    b_odd, sb = _split_two(xi.denominator)
    monotone_ok = True
    above_one_ok = True
    a_max = 0.0
    pairs = _scaled_pairs(xi)
    _, Q_prev, _, D_prev = next(pairs)
    b_n = 1             # odd part of b^n
    for n, (P, Q, R, D) in enumerate(pairs, 1):
        b_n *= b_odd
        if R <= 0 or Q <= _times(Q_prev, b_n, sb * n):
            monotone_ok = False
        if Q <= D:
            above_one_ok = False
        a_max = max(a_max, _float_quotient(R, P, D, D_prev))   # xi^n p_n^2
        increment = R / D
        if increment < tol * (Q / D):
            break
        if n >= max_n:
            raise QLimitError(
                f"no convergence to rel. increment {tol:g} within {max_n} steps",
                n, Q / D, increment)
        Q_prev, D_prev = Q, D
    value = Q / D
    bound = 1.0 + sqrt(a_max * float(xi)) / (1.0 - sqrt(float(xi)))
    return QLimitResult(value, n, monotone_ok, above_one_ok, a_max, bound,
                        value <= bound + 1e-12)
