"""The exact polynomial pair behind the defect eigenvectors.

Run:  python demos/demo_polynomials.py
"""

from fractions import Fraction

import resistnet as rn

print("=== the recursion p' = p + q, q' = q + xi^(n+1) p' ===")
pairs = rn.pair_sequence(5)
for pair in pairs[1:4]:
    print(f"n={pair.n}:  p = {list(pair.p.coeffs)}   q = {list(pair.q.coeffs)}")

print()
print("=== two independent evaluation routes agree exactly ===")
xi = Fraction(1, 2)
for n in (1, 2, 3, 10):
    from_matrix = rn.matrix_product_pair(n, xi)
    from_chain = rn.pair_values_sequence(xi, n)[n]
    print(f"n={n}: matrix {from_matrix} == chain {from_chain}:",
          from_matrix == from_chain)

print()
print("=== generating-function identities, exact to order 12 ===")
print("X (P + Q) = P                 :", rn.check_identity_P(12))
print("Q = 1 + X Q + P(xi X)         :", rn.check_identity_Q(12))
print("product representation of P   :", rn.check_repr_P(12, 12))
print("companion representation of Q :", rn.check_repr_Q(12, 12))

print()
print("=== growth: linear below, cubic above ===")
report = rn.growth_bounds_report(xi, 40)
print("n <= p_n(1/2) for n <= 40     :", report.lower_linear_ok)
print("p_n(1/2) <= n^3 for n <= 40   :", report.cube_bound_ok)
print("p_n = 1 + q_1 + ... + q_(n-1) :", report.cumulative_identity_ok)
print("fitted slope of p_n vs n      :", round(report.slope_fit, 4),
      " (scale sqrt(xi)/(1-sqrt(xi)) =", round(report.slope_reference, 4), ")")

print()
print("=== the bounded limit of q_n(xi) ===")
for xi in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)):
    res = rn.q_limit(xi, tol=1e-12)
    print(f"xi={xi}: limit ~ {res.value:.10f} after {res.n_terms} terms, "
          f"monotone: {res.monotone_ok}, bound {res.upper_bound:.12f}")

print()
print("=== a printed closed form that is only an approximation ===")
prod, expo, gap = rn.product_exponential_discrepancy(0.01, 0.3)
print(f"partial product {prod:.10f} vs exponential {expo:.10f}: gap {gap:.2e}")
print("(reported, never asserted: the two sides genuinely differ)")
