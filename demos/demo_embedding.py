"""Embedding the binary tree into the doubling half line, isometrically.

Run:  python demos/demo_embedding.py
"""

import numpy as np

import resistnet as rn

print("=== the compatible pair: phi = depth, psi = 2^depth ===")
gmap = rn.dyadic_pair(1.0, 8)
print(f"tree: {gmap.source.n_vertices} vertices; "
      f"half line conductances: {[c for _, _, c in gmap.target.edges][:4]} ...")

cert = rn.check_compatible(gmap, test_vectors=100, seed=11)
print("isometry worst relative error  :", cert.max_isometry_rel)
print("intertwining worst residual    :", cert.max_intertwine_resid)
print("certificate passed             :", cert.passed)
gmap = gmap.with_certificate(cert)

print()
print("=== the broken weight fails loudly ===")
bad = rn.dyadic_pair(1.0, 6, wrong_psi=True)
bad_cert = rn.check_compatible(bad, test_vectors=20, seed=11)
print("psi = 1 certificate passed:", bad_cert.passed,
      " (intertwining residual", round(bad_cert.max_intertwine_resid, 4), ")")

print()
print("=== transporting a monopole onto the tree ===")
w = rn.dirichlet_monopole(gmap.target)
tw, resid = rn.transport_monopole(gmap, w)
print("monopole energy on the line :", rn.energy(w))
print("transported energy on tree  :", rn.energy(tw), " (isometric)")
print("transport residual          :", resid)
print("bounded energy across depths:",
      [round(e, 6) for _, e in
       [(n, rn.energy(rn.transport_monopole(
           rn.dyadic_pair(1.0, n).with_certificate(
               rn.check_compatible(rn.dyadic_pair(1.0, n), 10, seed=1)),
           rn.dirichlet_monopole(rn.build_half_line(2, n)))[0]))
        for n in (4, 6, 8)]])

print()
print("=== a nonconstant harmonic vector on the tree, directly ===")
for depth in (4, 6, 8):
    res = rn.tree_harmonic_direct(1.0, depth)
    print(f"depth {depth}: root value {res.root_value}, "
          f"interior residual {res.interior_residual:.2e}, "
          f"energy {res.energy_value:.6f}")
print("(energies settle: the tree carries finite-energy harmonic vectors,")
print(" unlike the half line it embeds into)")

print()
print("=== pullbacks compose ===")
deeper = rn.build_half_line(2, 12)
inclusion = rn.GraphMap(gmap.target, deeper,
                        np.arange(gmap.target.n_vertices),
                        np.ones(gmap.target.n_vertices))
combined = rn.compose_maps(gmap, inclusion)
u = rn.vector(deeper, np.random.default_rng(2).standard_normal(13))
direct = rn.pullback(combined, u).values
staged = rn.pullback(gmap, rn.pullback(inclusion, u)).values
print("pullback along the composition == composed pullbacks:",
      np.array_equal(direct, staged))
