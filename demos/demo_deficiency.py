"""Harmonic and defect classification of the geometric line models.

Run:  python demos/demo_deficiency.py
"""

import resistnet as rn

print("=== half line: no harmonic vectors, one defect direction ===")
harm = rn.build_harmonic_zplus(2, 100)
print("harmonic verdict:", harm.verdict,
      "(forward substitution leaves max |h| =", harm.propagated_max_abs, ")")

sol = rn.build_deficiency_zplus(2, 200)
print("defect vector u(n) = q_n(1/2), first values:",
      [float(v) for v in sol.u_exact[:5]])
print("interior rows of Lap u = -u hold exactly in rationals:",
      sol.interior_residual_exact_zero)
print("energy partial sums:", [(d, round(v, 12)) for d, v in sol.energy_partials],
      "->", sol.energy_flag)
print("square-sum partials:", [(d, round(v, 2)) for d, v in sol.l2_partials],
      "->", sol.l2_flag)
print("(finite energy with divergent square sums is the whole point:",
      "the vector lives in the energy space but not in little-ell-2)")

print()
print("=== symmetric line: one harmonic direction ===")
hline = rn.build_harmonic_zline(2, 1.0, 40)
print("h(1) =", hline.vector.values[hline.vector.graph.index_of(1)],
      " energy:", hline.energy_partial, " limit:", hline.energy_limit)

zsol = rn.build_deficiency_zline(2, 100)
print("symmetric defect candidate: u(1) =", float(zsol.u_exact[1]),
      " classification:", zsol.classification)

print()
print("=== the dimension table, with evidence ===")
for m_ratio in (1.5, 2.0, 4.0):
    rep = rn.classify_model(rn.HALF_LINE_GEOM, m_ratio, 120)
    print(f"half line M={m_ratio}: (harm, def) = ({rep.harm_dim}, {rep.def_dim})")
rep = rn.classify_model(rn.LINE_GEOM_SYM, 2.0, 120)
print(f"sym line  M=2.0: harm = {rep.harm_dim}, "
      f"def = {rep.def_dim} (evidence only: {rep.def_evidence['classification']})")

print()
print("=== the two-ratio line and its normalization puzzle ===")
ab = rn.solve_ab_deficiency(2, 3, 60)
print("one-sided recursions give u(1) =", ab.literal_u1, ", u(-1) =", ab.literal_um1)
print("vertex-0 row residual as written:", ab.literal_vertex0_residual,
      "->", ab.normalization_flag)
print("with per-side scales", ab.repaired_lambda_plus, "and",
      ab.repaired_lambda_minus, "the residual becomes",
      ab.repaired_vertex0_residual)

print()
print("=== resolvent vectors ===")
g = rn.build_half_line(2, 24)
free = rn.resolvent_delta(g, 3, boundary="free")
pinned = rn.resolvent_delta(g, 3, boundary="dirichlet")
print("free truncation: frontier value", round(free.vector.values[-1], 6),
      "(a near-flat tail the infinite model does not have)")
print("pinned frontier: value", pinned.vector.values[-1],
      " interior energy identity residual:", pinned.energy_identity_rel)
