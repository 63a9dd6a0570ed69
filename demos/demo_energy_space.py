"""Tour of the energy form: graphs, Laplacians, dipoles, distance bounds.

Run:  python demos/demo_energy_space.py
"""

import numpy as np

import resistnet as rn

print("=== weighted graphs ===")
g = rn.build_half_line(2, 8)
print(f"half line, ratio 2, depth 8: {g.n_vertices} vertices, {len(g.edges)} edges")
print("edge conductances:", [c for _, _, c in g.edges])
print("vertex weights c(x):", g.vertex_weights)
print("valid:", rn.validate(g).is_valid)

print()
print("=== energy and Laplacian ===")
path = rn.path_graph([1.0, 1.0])
bump = rn.delta(path, 1)
print("energy of the middle bump on a unit path:", rn.energy(bump))
print("Laplacian of (0, 1, 0):", rn.apply_laplacian(bump).values)

print()
print("=== dipoles reproduce differences ===")
v2 = rn.solve_dipole(g, 2)
print("dipole at vertex 2:", np.round(v2.values, 6))
rng = np.random.default_rng(0)
u = rn.vector(g, rng.standard_normal(g.n_vertices))
print("energy pairing <v_2, u>      :", rn.energy_inner(v2, u))
print("difference u(2) - u(base)    :", u.values[2] - u.values[g.base_vertex])

print()
print("=== the path resistance bound ===")
bound = rn.distance_bound(g, 3, [0, 1, 2, 3])
print("bound for |u(3) - u(0)| / ||u||:", bound)
print("observed ratio:", abs(u.values[3] - u.values[0]) / np.sqrt(rn.energy(u)))

print()
print("=== quadratic sums ===")
supported = rng.standard_normal(g.n_vertices)
supported[g.depths > 3] = 0.0
w = rn.vector(g, supported)
quadratic = float(np.sum(w.values * rn.apply_laplacian(w).values))
print("finitely supported vector: sum u Lap u =", quadratic, " energy =", rn.energy(w))
