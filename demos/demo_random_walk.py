"""The reversible walk driven by conductances, simulated and iterated.

Run:  python demos/demo_random_walk.py
"""

import numpy as np

import resistnet as rn

print("=== transition probabilities from conductances ===")
g = rn.build_half_line(2, 30)
kernel = rn.kernel_from_graph(g)
print("p(0, 1)  =", kernel.probability(0, 1))
print("p(5, 6)  =", kernel.probability(5, 6), " (= M/(1+M) for M = 2)")
print("p(5, 4)  =", kernel.probability(5, 4), " (= 1/(1+M))")

print()
print("=== a million seeded single steps ===")
stats = rn.simulate(kernel, start=5, steps=1, trials=1_000_000, seed=7)
emp = stats.edge_counts[(5, 6)] / 1_000_000
sigma = np.sqrt((2 / 3) * (1 / 3) / 1_000_000)
print(f"empirical p(5,6) = {emp:.6f}, exact 2/3, deviation {abs(emp - 2/3)/sigma:.2f} sigma")
rerun = rn.simulate(kernel, start=5, steps=1, trials=1_000_000, seed=7)
print("identical counts on rerun with the same seed:",
      stats.edge_counts == rerun.edge_counts)

print()
print("=== the A-B line splits at the origin ===")
gab = rn.build_ab_line(2, 3, 10)
kab = rn.kernel_from_graph(gab)
z = gab.index_of(0)
print("p(0, +1) =", kab.probability(z, gab.index_of(1)), " (= A/(A+B))")
print("p(0, -1) =", kab.probability(z, gab.index_of(-1)), " (= B/(A+B))")

print()
print("=== the transfer operator ===")
rng = np.random.default_rng(1)
f = rn.vector(g, rng.standard_normal(g.n_vertices))
tf = rn.apply_transfer(kernel, f)
identity = f.values - rn.apply_laplacian(f).values / g.vertex_weights
print("max |T f - (f - Lap f / c)| =", np.max(np.abs(tf.values - identity)))

sol = rn.build_deficiency_zplus(2, 40)
tu = rn.apply_transfer(rn.kernel_from_graph(sol.vector.graph), sol.vector)
ratio = tu.values[5] / sol.vector.values[5]
print("defect eigenvector: (T u)(5)/u(5) =", ratio,
      " vs 1 + 1/c(5) =", 1 + 1 / sol.vector.graph.vertex_weights[5])

res = rn.transfer_iterate(rn.kernel_from_graph(sol.vector.graph), sol.vector,
                          k_max=500, tol=1e-10)
print(f"iterating T: {res.iterations} steps, monotone on the interior:",
      res.monotone_interior, " final sup-change:", res.last_delta)
