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
fraction-free idea of Bareiss, Math. Comp. 22, 1968). For n >= 1 both
P_n and Q_n are coprime to b: P_1 = 1 and Q_1 = a + b, and modulo every
prime factor of b, P_{n+1} = Q_n and Q_{n+1} = a^(n+1) P_{n+1}. So
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
X -> xi X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import exp, lcm, sqrt
from typing import Optional, Sequence

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


def _clean(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class XiPoly:
    """Dense univariate polynomial in xi with exact coefficients.

    Coefficients are stored low degree first with no trailing zeros;
    plain ints are kept as ints, rational coefficients as Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_clean(c) for c in coeffs]
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
    """
    xi = Fraction(xi)
    a, b = xi.numerator, xi.denominator
    p0, q0 = Fraction(seed[0]), Fraction(seed[1])
    d = lcm(p0.denominator, q0.denominator)
    P, Q, D = int(p0 * d), int(q0 * d), d
    R = P
    a_n = b_n = 1
    while True:
        yield P, Q, R, D
        P = b_n * P + Q
        a_n *= a
        b_n *= b
        R = a_n * P
        Q = b_n * Q + R
        D *= b_n


def _float_quotient(n1, n2, d1, d2):
    """float(n1 n2 / (d1 d2)) for ints, correctly rounded.

    For positive factors, cutting each to its leading 64 bits brackets the
    quotient between two nearby rationals. Rounding is monotone, so when
    both round to the same float the quotient does too, and the big
    products are never formed; otherwise the exact quotient is rounded.
    """
    factors = (n1, n2, d1, d2)
    if min(factors) > 0:
        cuts = [max(v.bit_length() - 64, 0) for v in factors]
        low = [v >> c for v, c in zip(factors, cuts)]
        high = [t + (c > 0) for t, c in zip(low, cuts)]
        shift = cuts[0] + cuts[1] - cuts[2] - cuts[3]

        def scaled(num, den):
            return (num << shift) / den if shift >= 0 else num / (den << -shift)

        try:
            lo = scaled(low[0] * low[1], high[2] * high[3])
            hi = scaled(high[0] * high[1], low[2] * low[3])
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

    def __mul__(self, other):
        self._check(other)
        out = [XiPoly.zero() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return FormalSeries(self.order, out)

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

    def reciprocal(self):
        """Inverse series, by the unit-constant-term inversion recurrence."""
        if self.coeffs[0] != XiPoly.one():
            raise ValueError("reciprocal requires constant term exactly 1")
        inv = [XiPoly.one()]
        for k in range(1, self.order + 1):
            acc = XiPoly.zero()
            for j in range(1, k + 1):
                a = self.coeffs[j]
                if not a.is_zero():
                    acc = acc + a * inv[k - j]
            inv.append(acc.scale(-1))
        return FormalSeries(self.order, inv)

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


def _inverse_square_factor(k: int, order: int) -> FormalSeries:
    """1 / (1 - xi^k X)^2 as a truncated series."""
    linear = FormalSeries.from_coeffs(
        order, [XiPoly.one(), XiPoly.monomial(k, -1)])
    inv = linear.reciprocal()
    return inv * inv


def check_repr_P(order: int, n_max: int) -> bool:
    """Verify the product representation of the p-series, exactly.

    Terms are xi^((n-1)n/2) X^n / prod_{k=0}^{n-1} (1 - xi^k X)^2 for
    n = 1 .. n_max. A term with n > order carries the factor X^n and so
    cannot touch coefficients up to the truncation order; this is checked
    on the first such term rather than assumed.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_max < order:
        raise ValueError("n_max must be >= order so no contributing term is skipped")
    total = FormalSeries.zero(order)
    running = FormalSeries.one(order)     # prod over k < n of 1/(1 - xi^k X)^2
    tri = 0                               # (n-1)n/2, updated incrementally
    for n in range(1, min(n_max, order + 1) + 1):
        running = running * _inverse_square_factor(n - 1, order)
        tri += n - 1
        term = running.mul_x(n).scale(XiPoly.monomial(tri))
        if n > order:
            # X^n factor pushes everything past the truncation order
            assert term == FormalSeries.zero(order)
            break
        total = total + term
    return total == genfunc_P(order)


def check_repr_Q(order: int, n_max: int) -> bool:
    """Verify the companion representation of the q-series, exactly.

    Q == (1/(1-X)) * (1 + sum_{n>=1} xi^(n(n+1)/2) X^n
                           / prod_{k=1}^{n} (1 - xi^k X)^2).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_max < order:
        raise ValueError("n_max must be >= order so no contributing term is skipped")
    inner = FormalSeries.one(order)
    running = FormalSeries.one(order)
    tri = 0
    for n in range(1, min(n_max, order) + 1):
        running = running * _inverse_square_factor(n, order)
        tri += n
        inner = inner + running.mul_x(n).scale(XiPoly.monomial(tri))
    one_minus_x = FormalSeries.from_coeffs(
        order, [XiPoly.one(), XiPoly.constant(-1)])
    return one_minus_x.reciprocal() * inner == genfunc_Q(order)


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
        return {
            "xi": str(self.xi),
            "n_max": self.n_max,
            "lower_linear_ok": self.lower_linear_ok,
            "cube_hypothesis_holds": self.cube_hypothesis_holds,
            "cube_bound_ok": self.cube_bound_ok,
            "smallest_exponent": self.smallest_exponent,
            "cumulative_identity_ok": self.cumulative_identity_ok,
            "slope_fit": self.slope_fit,
            "slope_reference": self.slope_reference,
        }


def growth_bounds_report(xi, n_max: int) -> GrowthReport:
    """Exact growth checks for p_n, q_n at one rational xi.

    Checks n <= p_n(xi) for every n; the cubic upper bound whenever the
    ratio 1/xi clears the threshold that guarantees it (otherwise the
    smallest integer exponent m <= 12 making both paired power bounds
    hold is searched and reported); and the telescoped cumulative-sum
    identity p_n = 1 + q_1 + ... + q_{n-1} at the polynomial level. The
    slope fields are diagnostics: the linear-growth constant is
    existential, so no pass/fail is attached.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
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
    is positive, tol must be > 0 to be reachable.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if not tol > 0:
        raise ValueError(f"tol must be > 0 (got {tol!r}); the increments are positive")
    b = xi.denominator
    monotone_ok = True
    above_one_ok = True
    a_max = 0.0
    pairs = _scaled_pairs(xi)
    _, Q_prev, _, D_prev = next(pairs)
    b_n = 1
    for n, (P, Q, R, D) in enumerate(pairs, 1):
        b_n *= b
        if R <= 0 or Q <= b_n * Q_prev:
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
