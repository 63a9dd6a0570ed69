import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from resistnet import polynomials
from resistnet.polynomials import (
    _float_quotient, _repr_series_P, _repr_series_Q, _scaled_pairs, _split_two,
    _times,
    CUBE_BOUND_RATIO_THRESHOLD, FormalSeries, QLimitError, SEED_PAIR, XiPoly,
    check_identity_P, check_identity_Q, check_repr_P, check_repr_Q,
    genfunc_P, genfunc_Q, growth_bounds_report, identity_P_holds,
    identity_Q_holds, matrix_product_pair, pair_sequence,
    pair_values_sequence, product_exponential_discrepancy, q_limit,
    recursion_step,
)

HALF = Fraction(1, 2)

# the first rows of the pair, written out by hand from the recursion
# p_{n+1} = p_n + q_n, q_{n+1} = q_n + xi^(n+1) p_{n+1}, seeded at (0, 1)
FIRST_ROWS = {
    1: ((1,), (1, 1)),
    2: ((2, 1), (1, 1, 2, 1)),
    3: ((3, 2, 2, 1), (1, 1, 2, 4, 2, 2, 1)),
}


def test_seed_pair():
    assert SEED_PAIR.n == 0
    assert SEED_PAIR.p.is_zero()
    assert SEED_PAIR.q == XiPoly.one()


@pytest.mark.parametrize("n,expected", sorted(FIRST_ROWS.items()))
def test_first_rows_exact(n, expected):
    pair = pair_sequence(n)[n]
    assert pair.p.coeffs == expected[0]
    assert pair.q.coeffs == expected[1]


def test_recursion_step_explicit():
    pair1 = recursion_step(SEED_PAIR)
    assert (pair1.p.coeffs, pair1.q.coeffs) == FIRST_ROWS[1]
    pair2 = recursion_step(pair1)
    assert (pair2.p.coeffs, pair2.q.coeffs) == FIRST_ROWS[2]


def test_matrix_product_small_values():
    assert matrix_product_pair(1, HALF) == (1, Fraction(3, 2))
    assert matrix_product_pair(2, HALF) == (Fraction(5, 2), Fraction(17, 8))


@pytest.mark.parametrize("xi", [HALF, Fraction(1, 3), Fraction(2, 5)])
def test_matrix_product_agrees_with_recursion(xi):
    values = pair_values_sequence(xi, 40)
    for n in range(1, 41):
        assert matrix_product_pair(n, xi) == values[n]


def test_polynomial_evaluation_matches_value_recursion():
    pairs = pair_sequence(25)
    xi = Fraction(2, 7)
    values = pair_values_sequence(xi, 25)
    for n in range(26):
        assert (pairs[n].p(xi), pairs[n].q(xi)) == values[n]


def test_degree_and_endpoint_laws_to_60():
    pairs = pair_sequence(60)
    for n in range(1, 61):
        p, q = pairs[n].p, pairs[n].q
        assert q.degree == n * (n + 1) // 2
        assert p.degree == (n - 1) * n // 2
        assert q.coefficient(0) == 1
        assert p.coefficient(0) == n
        assert q.leading() == 1
        assert p.leading() == 1
        # second coefficients: n-1 for p (n >= 2), 1 for q
        if n >= 2:
            assert p.coefficient(1) == n - 1
            assert q.coefficient(1) == 1
        assert all(c >= 0 for c in p.coeffs)
        assert all(c >= 0 for c in q.coeffs)


def test_generating_function_identities():
    assert check_identity_P(10)
    assert check_identity_Q(10)
    # low-order reading of the P identity: the X coefficient is p_0 + q_0 = p_1
    series_p = genfunc_P(2)
    assert series_p.coeffs[1] == XiPoly.one()
    # low-order reading of the Q identity: q_1 = q_0 + xi p_1
    series_q = genfunc_Q(2)
    assert series_q.coeffs[1] == XiPoly((1, 1))


def test_identity_checks_are_falsifiable():
    order = 8
    series_p = genfunc_P(order)
    series_q = genfunc_Q(order)
    assert identity_P_holds(series_p, series_q)
    assert identity_Q_holds(series_p, series_q)
    # bump q_5 by 1 and both identities must break
    bad_coeffs = list(series_q.coeffs)
    bad_coeffs[5] = bad_coeffs[5] + XiPoly.one()
    bad_q = FormalSeries(order, bad_coeffs)
    assert not identity_P_holds(series_p, bad_q)
    assert not identity_Q_holds(series_p, bad_q)


def test_product_representations():
    assert check_repr_P(6, 6)
    assert check_repr_P(12, 12)
    assert check_repr_P(12, 20)   # extra terms cannot touch low orders
    assert check_repr_Q(12, 12)
    assert check_repr_P(1, 1)     # degenerate single-coefficient comparison
    assert check_repr_P(20, 20)
    assert check_repr_Q(20, 20)


def test_repr_requires_enough_terms():
    with pytest.raises(ValueError):
        check_repr_P(8, 5)


def _series_mul(a, b):
    """The truncated Cauchy product a * b, coefficient by coefficient."""
    if a.order != b.order:
        raise ValueError(f"mixed truncation orders {a.order} and {b.order}")
    out = [XiPoly.zero() for _ in range(a.order + 1)]
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j in range(a.order + 1 - i):
            y = b.coeffs[j]
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return FormalSeries(a.order, out)


def _series_reciprocal(s):
    """Inverse series, by the unit-constant-term inversion recurrence."""
    if s.coeffs[0] != XiPoly.one():
        raise ValueError("reciprocal requires constant term exactly 1")
    inv = [XiPoly.one()]
    for k in range(1, s.order + 1):
        acc = XiPoly.zero()
        for j in range(1, k + 1):
            a = s.coeffs[j]
            if not a.is_zero():
                acc = acc + a * inv[k - j]
        inv.append(acc.scale(-1))
    return FormalSeries(s.order, inv)


def _inverse_linear(k, order):
    """1 / (1 - xi^k X), by the series reciprocal."""
    return _series_reciprocal(
        FormalSeries.from_coeffs(order, [XiPoly.one(), XiPoly.monomial(k, -1)]))


def _product_oracle(order, first):
    """The product-side sum, multiplied out term by term with series products."""
    total = FormalSeries.zero(order)
    running = FormalSeries.one(order)
    tri = first * (first - 1) // 2
    for n in range(1, order + 1):
        k = n - 1 + first
        inv = _inverse_linear(k, order)
        running = _series_mul(_series_mul(running, inv), inv)
        tri += k
        total = total + running.mul_x(n).scale(XiPoly.monomial(tri))
    return total


@pytest.mark.parametrize("order", range(1, 11))
def test_product_side_matches_series_products(order):
    assert _repr_series_P(order, order) == _product_oracle(order, 0)
    inner = FormalSeries.one(order) + _product_oracle(order, 1)
    assert _repr_series_Q(order, order) == _series_mul(_inverse_linear(0, order), inner)


@pytest.mark.parametrize("check,genfunc", [(check_repr_P, "genfunc_P"),
                                           (check_repr_Q, "genfunc_Q")])
@pytest.mark.parametrize("n", [1, 5, 9])
def test_product_representations_are_falsifiable(check, genfunc, n, monkeypatch):
    order = 9
    target = getattr(polynomials, genfunc)(order)
    coeffs = list(target.coeffs)
    coeffs[n] = coeffs[n] + XiPoly.monomial(n)
    monkeypatch.setattr(polynomials, genfunc, lambda _order: FormalSeries(order, coeffs))
    assert not check(order, order)


def test_series_mixed_orders_refused():
    a = FormalSeries.one(5)
    b = FormalSeries.one(7)
    with pytest.raises(ValueError):
        _ = a + b
    assert a + b.truncate(5) == FormalSeries.one(5) + FormalSeries.one(5)


def test_series_reciprocal_requires_unit_constant():
    s = FormalSeries.from_coeffs(4, [XiPoly.constant(2)])
    with pytest.raises(ValueError):
        _series_reciprocal(s)


def test_series_reciprocal_inverts():
    # (1 - xi X)^-1 times (1 - xi X) gives 1 through the truncation order
    order = 9
    linear = FormalSeries.from_coeffs(order, [XiPoly.one(), XiPoly.monomial(1, -1)])
    assert _series_mul(linear, _series_reciprocal(linear)) == FormalSeries.one(order)


def test_product_formula_discrepancy_is_reported_not_asserted():
    # the partial product and the exponential expression are close for
    # small xi but visibly different; the diagnostic exposes the gap
    prod, expo, gap = product_exponential_discrepancy(0.01, 0.3, 80)
    assert gap > 1e-7          # genuinely not an identity
    assert gap < 0.01          # but close at small xi
    prod2, expo2, gap2 = product_exponential_discrepancy(0.4, 0.5, 80)
    assert gap2 > 0.02         # and far from one at moderate xi


def test_growth_report_xi_half():
    report = growth_bounds_report(HALF, 40)
    assert report.lower_linear_ok
    assert report.cube_hypothesis_holds      # 2 > exp(e^-1 sqrt(2/3)) ~ 1.3504
    assert report.cube_bound_ok
    assert report.cumulative_identity_ok
    assert report.smallest_exponent is None
    # hand values: p_3(1/2) = 37/8 lies between 3 and 27
    values = pair_values_sequence(HALF, 3)
    assert values[3][0] == Fraction(37, 8)
    assert 3 <= values[3][0] <= 27


def test_growth_threshold_value():
    assert abs(CUBE_BOUND_RATIO_THRESHOLD - 1.3503614615525612) < 1e-12


def test_growth_report_below_threshold_searches_exponent():
    # 1/xi = 1.25 sits below the guaranteed-cubic threshold
    report = growth_bounds_report(Fraction(4, 5), 30)
    assert not report.cube_hypothesis_holds
    assert report.cube_bound_ok is None
    assert report.smallest_exponent is not None
    assert 1 <= report.smallest_exponent <= 12


def test_cumulative_identity_hand_value():
    # 1 + q_1 + q_2 = p_3 as polynomials
    pairs = pair_sequence(3)
    acc = XiPoly.one() + pairs[1].q + pairs[2].q
    assert acc == pairs[3].p


def test_q_limit_small_xi():
    result = q_limit(Fraction(1, 100), tol=1e-10)
    # oracle: evaluate q_4 at 1/100 from the hand-checked table rows
    xi = Fraction(1, 100)
    p3 = XiPoly(FIRST_ROWS[3][0])(xi)
    q3 = XiPoly(FIRST_ROWS[3][1])(xi)
    p4 = p3 + q3
    q4 = q3 + xi ** 4 * p4
    assert abs(result.value - float(q4)) < 1e-6
    assert abs(result.value - 1.0102) < 0.05
    assert result.monotone_ok and result.above_one_ok


@pytest.mark.parametrize("xi", [Fraction(1, 10), Fraction(1, 3), HALF])
def test_q_limit_monotone_and_bounded(xi):
    result = q_limit(xi, tol=1e-12, max_n=300)
    assert result.monotone_ok
    assert result.above_one_ok
    assert result.within_bound
    assert result.value <= result.upper_bound + 1e-12


def test_q_limit_iteration_cap():
    with pytest.raises(QLimitError) as err:
        q_limit(HALF, tol=1e-12, max_n=3)
    assert err.value.n_reached == 3
    assert err.value.last_value > 1.0


def test_energy_summability_tail():
    # partial sums of xi^n p_n(xi)^2 go Cauchy: the increment at n = 200
    # for xi = 1/2 sits far below 1e-12
    values = pair_values_sequence(HALF, 200)
    increment = float(HALF ** 200 * values[200][0] ** 2)
    assert increment < 1e-12
    total = sum(float(HALF ** n * values[n][0] ** 2) for n in range(1, 201))
    assert total < float("inf")


def test_radius_of_convergence_diagnostics():
    # xi^(n/2) p_n(xi) stays bounded, and q_n(xi) stays bounded, over n <= 200
    values = pair_values_sequence(HALF, 200)
    scaled = [float(HALF ** Fraction(n, 2) * values[n][0]) for n in range(1, 201)]
    assert max(scaled) < 10.0
    q_vals = [float(values[n][1]) for n in range(201)]
    assert max(q_vals) < 10.0


def test_xipoly_arithmetic_basics():
    a = XiPoly((1, 2))
    b = XiPoly((0, 1))
    assert (a * b).coeffs == (0, 1, 2)
    assert (a + b).coeffs == (1, 3)
    assert a.shift(2).coeffs == (0, 0, 1, 2)
    assert XiPoly((0, 0)).is_zero()
    assert XiPoly((Fraction(2, 1),)).coeffs == (2,)   # cleaned to int
    assert type(XiPoly((Fraction(2, 1),)).coeffs[0]) is int
    assert XiPoly((Fraction(1, 2),)).coeffs == (Fraction(1, 2),)
    assert a(Fraction(1, 2)) == 2


# -- the scaled-integer pair kernel ----------------------------------------------

# a = 1 over a power of two, b = 4, b odd, the float ratio 1/1.1 (a a power
# of two over an odd b), a even over b odd, and a odd over b = 3 * 4. n_max
# is smaller at 1/1.1 because the Fraction oracle carries a 2^51-scale
# denominator and takes seconds per step pair beyond n ~ 60
KERNEL_CASES = [(HALF, 120), (Fraction(3, 4), 120), (Fraction(1, 3), 120),
                (1 / Fraction(1.1), 50), (Fraction(2, 3), 80), (Fraction(5, 12), 60)]
# a = 0 has no power-of-two split, and a < 0 keeps its sign in the odd part
NONPOSITIVE_CASES = [(Fraction(0), 30), (Fraction(-1, 2), 30), (Fraction(-3, 4), 30),
                     (Fraction(-5, 12), 30)]


def test_split_two_and_times():
    for v in range(-70, 71):
        odd, s = _split_two(v)
        assert s >= 0 and odd << s == v
        assert odd % 2 == 1 or v == 0
        for x in (-5, 0, 7, 3 ** 40):
            assert _times(x, odd, s) == x * v
    assert _split_two(0) == (0, 0)
    assert _split_two(-(3 << 70)) == (-3, 70)


def _fraction_pairs(xi, n_max, p1=1, q1=None):
    """(p_n, q_n) for n = 1..n_max by the plain Fraction recursion, index-1 seed."""
    p, q = Fraction(p1), 1 + xi if q1 is None else Fraction(q1)
    out = [(p, q)]
    for n in range(2, n_max + 1):
        p = p + q
        q = q + xi ** n * p
        out.append((p, q))
    return out


@pytest.mark.parametrize("xi,n_max", KERNEL_CASES + NONPOSITIVE_CASES)
def test_scaled_kernel_matches_fraction_recursion(xi, n_max):
    rows = list(islice(_scaled_pairs(xi), n_max + 1))
    assert rows[0] == (0, 1, 0, 1)
    b = xi.denominator
    for n, ((P, Q, R, D), (p, q)) in enumerate(zip(rows[1:], _fraction_pairs(xi, n_max)), 1):
        assert D == b ** (n * (n + 1) // 2)
        assert Fraction(P, rows[n - 1][3]) == p
        assert Fraction(Q, D) == q
        assert Fraction(R, D) == xi ** n * p
    assert pair_values_sequence(xi, n_max)[1:] == _fraction_pairs(xi, n_max)


@pytest.mark.parametrize("xi,n_max", KERNEL_CASES)
def test_scaled_kernel_matches_matrix_product(xi, n_max):
    values = pair_values_sequence(xi, n_max)
    for n in sorted({1, 2, 3, 17, n_max // 2, n_max}):
        assert values[n] == matrix_product_pair(n, xi)


@pytest.mark.parametrize("xi,n_max", KERNEL_CASES)
def test_scaled_kernel_sym_line_seed(xi, n_max):
    # (p_0, q_0) = (-1/2, 1) gives (p_1, q_1) = (1/2, 1 + xi/2), the symmetric
    # line's seed; the seed's denominator 2 is carried in every D_n
    rows = list(islice(_scaled_pairs(xi, (Fraction(-1, 2), 1)), n_max + 1))
    assert rows[0] == (-1, 2, -1, 2)
    oracle = _fraction_pairs(xi, n_max, Fraction(1, 2), 1 + xi / 2)
    for n, ((P, Q, R, D), (p, q)) in enumerate(zip(rows[1:], oracle), 1):
        assert D == 2 * xi.denominator ** (n * (n + 1) // 2)
        assert Fraction(P, rows[n - 1][3]) == p
        assert Fraction(Q, D) == q
        assert Fraction(R, D) == xi ** n * p


@pytest.mark.parametrize("xi,n_max", KERNEL_CASES)
def test_scaled_kernel_lowest_terms(xi, n_max):
    # P_n and Q_n are coprime to b for n >= 1, so p_n = P_n / D_(n-1) and
    # q_n = Q_n / D_n need no reduction
    b = xi.denominator
    for P, Q, _R, _D in islice(_scaled_pairs(xi), 1, n_max + 1):
        assert gcd(P, b) == 1
        assert gcd(Q, b) == 1


def test_float_quotient_rounds_like_fraction():
    rng = random.Random(20261018)
    for _ in range(400):
        sizes = [rng.randint(1, 3000) for _ in range(3)]
        # quotients from the subnormal range up to overflow
        sizes.append(max(1, sizes[0] + sizes[1] - sizes[2] + rng.randint(-1100, 1100)))
        n1, n2, d1, d2 = (rng.getrandbits(k) | 1 << (k - 1) for k in sizes)
        try:
            expected = n1 * n2 / (d1 * d2)
        except OverflowError:
            with pytest.raises(OverflowError):
                _float_quotient(n1, n2, d1, d2)
            continue
        assert _float_quotient(n1, n2, d1, d2) == expected
    # exactly halfway between 1 and 1 + 2^-52 (ties to even), and just above
    # it: the 64-bit cut cannot decide these, so the exact quotient is rounded
    half = (2 ** 53 + 1) << 2000
    assert _float_quotient(half, 1, 2 ** 2053, 1) == 1.0
    assert _float_quotient(half + 1, 1, 2 ** 2053, 1) == 1.0 + 2.0 ** -52


def _ratio_or_overflow(n, d):
    try:
        return float(Fraction(n, d))
    except OverflowError:
        return OverflowError


def _assert_ratio_rounds_like_fraction(n, d):
    expected = _ratio_or_overflow(n, d)
    if expected is OverflowError:
        with pytest.raises(OverflowError):
            _float_quotient(n, 1, d, 1)
        return
    got = _float_quotient(n, 1, d, 1)
    assert type(got) is float
    assert got.hex() == expected.hex(), (n, d)


def test_float_quotient_of_two_factors_rounds_like_fraction_on_random_big_ints():
    rng = random.Random(20261019)
    for _ in range(600):
        n_bits = rng.randint(1, 4000)
        # quotients from below the subnormal range to past overflow
        d_bits = max(1, n_bits + rng.randint(-1100, 1100))
        n, d = rng.getrandbits(n_bits) | 1 << (n_bits - 1), rng.getrandbits(d_bits) | 1
        _assert_ratio_rounds_like_fraction(n, d)
    for n, d in ((0, 7), (-5, 3), (-(3 << 900), 7 << 800), (1, 1), (2 ** 64 - 1, 2 ** 64 + 1)):
        _assert_ratio_rounds_like_fraction(n, d)


@pytest.mark.parametrize("scale", [0, 1, 11, 64, 65, 700, 3000])
def test_float_quotient_of_two_factors_rounds_ties_and_their_neighbours(scale):
    # 1 + 2^-53 lies halfway between 1 and 1 + 2^-52, and 1 + 3 2^-53
    # halfway between 1 + 2^-52 and 1 + 2^-51: ties go to even
    d = 2 ** (53 + 60 + scale)
    for odd in (2 ** 53 + 1, 2 ** 53 + 3):
        for nudge in (-1, 0, 1):
            _assert_ratio_rounds_like_fraction((odd << (scale + 60)) + nudge, d)
    assert _float_quotient((2 ** 53 + 1) << scale, 1, 2 ** (53 + scale), 1) == 1.0
    assert _float_quotient((2 ** 53 + 3) << scale, 1, 2 ** (53 + scale), 1) == 1.0 + 2.0 ** -51


@pytest.mark.parametrize("scale", [0, 64, 500, 3000])
def test_float_quotient_of_two_factors_near_the_subnormal_and_overflow_limits(scale):
    d = 1 << scale
    # 2^-1075 is halfway between 0 and the smallest subnormal, 3 2^-1075
    # halfway between the two smallest: both round to even
    for k, expected in ((1, 0.0), (3, 2.0 ** -1073), (2, 2.0 ** -1074)):
        assert _float_quotient(k << scale, 1, d << 1075, 1) == expected
        for nudge in (-1, 1):
            _assert_ratio_rounds_like_fraction(((k << 70) + nudge) << scale, d << (1075 + 70))
    top = 2 ** 1024 - 2 ** 970        # halfway between the largest float and 2^1024
    assert _float_quotient((top - 1) << scale, 1, d, 1) == 1.7976931348623157e308
    for n in (top - 1, top, top + 1, 2 ** 1024, 2 ** 1024 - 1):
        _assert_ratio_rounds_like_fraction(n << scale, d)


def _float_q_limit(xi, tol):
    p, q, xi_pow = 0.0, 1.0, 1.0
    while True:
        xi_pow *= xi
        p += q
        increment = xi_pow * p
        q += increment
        if increment < tol * q:
            return q


def test_q_limit_nine_tenths_against_float_iteration():
    result = q_limit(Fraction(9, 10))
    expected = _float_q_limit(0.9, 1e-12)
    assert abs(result.value - expected) <= 1e-9 * expected
    assert result.monotone_ok and result.above_one_ok and result.within_bound
