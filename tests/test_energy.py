import numpy as np
import pytest

from resistnet.energy import (
    EnergyVector, ProjectionError, apply_laplacian, constant, delta,
    distance_bound, energy, energy_inner, project_fin_harm,
    random_interior_vector, read_vector, solve_dipole, sum_S2, vector,
    write_vector,
)
from resistnet.boundary import build_deficiency_zplus, build_harmonic_zline
from resistnet.graphs import (
    build_dyadic_tree, build_half_line, build_sym_line, path_graph,
)

from graph_oracles import adjacency_by_edges


@pytest.fixture
def path3():
    return path_graph([1.0, 1.0])


def test_energy_of_constant_is_zero(path3):
    assert energy(constant(path3, 3.7)) == 0.0


def test_energy_of_unit_bump(path3):
    # two unit edges, each difference 1
    assert energy(delta(path3, 1)) == 2.0


def test_energy_of_delta_matches_vertex_weight():
    g = build_half_line(2, 4)
    assert energy(delta(g, 0)) == g.vertex_weights[0] == 2.0
    assert energy(delta(g, 2)) == g.vertex_weights[2]


def test_energy_inner_constant_orthogonal(path3):
    rng = np.random.default_rng(0)
    u = vector(path3, rng.standard_normal(3))
    assert abs(energy_inner(u, constant(path3))) < 1e-15


def test_energy_inner_of_deltas():
    g = build_half_line(2, 4)
    assert energy_inner(delta(g, 1), delta(g, 2)) == -4.0
    assert energy_inner(delta(g, 0), delta(g, 3)) == 0.0
    assert energy_inner(delta(g, 2), delta(g, 2)) == g.vertex_weights[2]


def test_energy_inner_polarization():
    g = build_sym_line(2, 5)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = vector(g, rng.standard_normal(g.n_vertices))
        v = vector(g, rng.standard_normal(g.n_vertices))
        lhs = energy_inner(u, v)
        rhs = 0.25 * (energy(vector(g, u.values + v.values))
                      - energy(vector(g, u.values - v.values)))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
        assert abs(energy_inner(u, u) - energy(u)) < 1e-12 * (1 + energy(u))


def test_energy_inner_rejects_graph_mismatch(path3):
    other = path_graph([2.0, 2.0])
    with pytest.raises(ValueError):
        energy_inner(delta(path3, 0), delta(other, 0))


def test_laplacian_of_constant_is_zero(path3):
    assert np.all(apply_laplacian(constant(path3, 2.0)).values == 0.0)


def test_laplacian_hand_example(path3):
    out = apply_laplacian(vector(path3, [0.0, 1.0, 0.0]))
    assert np.array_equal(out.values, [-1.0, 2.0, -1.0])


def test_laplacian_reproduces_energy_inner():
    g = build_half_line(2, 8)
    rng = np.random.default_rng(2)
    u = vector(g, rng.standard_normal(g.n_vertices))
    lap = apply_laplacian(u).values
    for x in range(g.n_vertices):
        assert abs(energy_inner(delta(g, x), u) - lap[x]) < 1e-9


def test_normalize_idempotent_and_energy_preserving():
    g = build_sym_line(2, 4)
    rng = np.random.default_rng(3)
    u = vector(g, rng.standard_normal(g.n_vertices) + 5.0)
    n1 = u.normalize()
    n2 = n1.normalize()
    assert n1.values[g.base_vertex] == 0.0
    assert np.array_equal(n1.values, n2.values)
    assert abs(energy(u) - energy(n1)) < 1e-12 * (1 + energy(u))


def test_dipole_hand_example(path3):
    v = solve_dipole(path3, 1)
    assert np.allclose(v.values, [0.0, 1.0, 1.0], atol=1e-12)
    assert v.values[0] == 0.0


def test_dipole_rejects_base_vertex(path3):
    with pytest.raises(ValueError):
        solve_dipole(path3, 0)


def test_dipole_diagnostics_record(path3):
    v, diag = solve_dipole(path3, 2, with_diagnostics=True)
    record = diag.to_dict()
    assert set(record) == {"method", "iterations", "residual", "tolerance"}
    assert record["residual"] <= record["tolerance"]


@pytest.mark.parametrize("graph_factory", [
    lambda: build_half_line(2, 12),
    lambda: build_sym_line(2, 8),
    lambda: build_dyadic_tree(1.0, 4),
])
def test_dipole_reproducing_property(graph_factory):
    g = graph_factory()
    rng = np.random.default_rng(4)
    o = g.base_vertex
    for x in rng.choice([v for v in range(g.n_vertices) if v != o], 3, replace=False):
        v = solve_dipole(g, int(x))
        lap = apply_laplacian(v).values
        target = np.zeros(g.n_vertices)
        target[x] = 1.0
        target[o] = -1.0
        assert np.max(np.abs(lap - target)) < 1e-9
        for _ in range(20):
            u = vector(g, rng.standard_normal(g.n_vertices))
            assert abs(energy_inner(v, u) - (u.values[x] - u.values[o])) < 1e-8


def test_dipole_delta_reconstruction():
    # delta_x = c(x) v_x - sum over neighbors y of c(x,y) v_y, with v_o = 0
    g = build_half_line(2, 10)
    o = g.base_vertex
    dipoles = {o: np.zeros(g.n_vertices)}
    for x in range(1, g.n_vertices):
        dipoles[x] = solve_dipole(g, x).values
    adjacency = adjacency_by_edges(g)
    for x in range(1, g.n_vertices - 1):
        combo = g.vertex_weights[x] * dipoles[x]
        for y, c in adjacency[x]:
            combo = combo - c * dipoles[y]
        target = np.zeros(g.n_vertices)
        target[x] = 1.0
        assert np.max(np.abs(combo - target)) < 1e-9


def test_distance_bound_values():
    g = build_half_line(2, 4)
    bound = distance_bound(g, 2, [0, 1, 2])
    assert abs(bound - np.sqrt(0.75)) < 1e-15
    p = path_graph([1.0])
    assert distance_bound(p, 1, [0, 1]) == 1.0
    u = delta(p, 1)
    assert abs(u.values[1] - u.values[0]) <= 1.0 * np.sqrt(energy(u))


def test_distance_bound_controls_differences():
    g = build_sym_line(2, 6)
    rng = np.random.default_rng(5)
    path = [g.index_of(k) for k in range(0, 5)]
    bound = distance_bound(g, g.index_of(4), path)
    for _ in range(25):
        u = vector(g, rng.standard_normal(g.n_vertices))
        diff = abs(u.values[g.index_of(4)] - u.values[g.base_vertex])
        assert diff <= bound * np.sqrt(energy(u)) + 1e-12


def test_distance_bound_monotone_in_conductance():
    weak = path_graph([1.0, 1.0, 1.0])
    strong = path_graph([1.0, 5.0, 1.0])
    path = [0, 1, 2, 3]
    assert distance_bound(strong, 3, path) < distance_bound(weak, 3, path)


def test_distance_bound_rejects_non_path(path3):
    with pytest.raises(ValueError):
        distance_bound(path3, 2, [0, 2])
    with pytest.raises(ValueError):
        distance_bound(path3, 2, [1, 2])


def test_projection_empty_basis(path3):
    v = delta(path3, 1)
    fin, harm = project_fin_harm(v, [])
    assert np.array_equal(fin.values, v.values)
    assert np.all(harm.values == 0.0)


def test_projection_recovers_basis_member():
    res = build_harmonic_zline(2, 1.0, 20)
    h = res.vector
    g = h.graph
    fin, harm = project_fin_harm(EnergyVector(g, 2.5 * h.values), [h])
    assert energy(fin) <= 1e-8 * energy(harm)
    assert abs(energy(harm) - 2.5 ** 2 * energy(h)) < 1e-8 * energy(harm)


def test_projection_one_dimensional_oracle_and_pythagoras():
    res = build_harmonic_zline(2, 1.0, 20)
    h = res.vector
    g = h.graph
    rng = np.random.default_rng(6)
    # the dipole-like vector with a frontier tail has a nonzero component
    values = rng.standard_normal(g.n_vertices)
    v = EnergyVector(g, values)
    fin, harm = project_fin_harm(v, [h])
    coeff = energy_inner(h, v) / energy(h)
    assert np.max(np.abs(harm.values - coeff * h.values)) < 1e-10 * (1 + abs(coeff))
    total = energy(v)
    assert abs(total - energy(fin) - energy(harm)) < 1e-8 * (1 + total)
    # interior-supported vectors are exactly orthogonal to the restricted
    # harmonic vector, so their harmonic part vanishes
    v_int = random_interior_vector(g, rng, margin=2)
    _, harm_int = project_fin_harm(v_int, [h])
    assert energy(harm_int) < 1e-20


def test_projection_rejects_singular_gram(path3):
    u = delta(path3, 1)
    with pytest.raises(ProjectionError) as err:
        project_fin_harm(u, [u, u])
    assert err.value.condition_estimate > 1e12


def test_quadratic_identity_on_dipole_span():
    # <u, Lap u> = sum |Lap u(x)|^2 + |sum Lap u(x)|^2 over non-base vertices
    # for u in the span of dipoles
    g = build_half_line(2, 10)
    rng = np.random.default_rng(7)
    for _ in range(5):
        xs = rng.choice(range(1, g.n_vertices), 3, replace=False)
        coef = rng.standard_normal(3)
        u_values = np.zeros(g.n_vertices)
        for c, x in zip(coef, xs):
            u_values += c * solve_dipole(g, int(x)).values
        u = EnergyVector(g, u_values)
        lhs = energy_inner(u, apply_laplacian(u))
        rhs = float(np.sum(coef ** 2) + np.sum(coef) ** 2)
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


def test_laplacian_symmetry_and_semiboundedness():
    g = build_sym_line(2, 10)
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = random_interior_vector(g, rng)
        v = random_interior_vector(g, rng)
        lu, lv = apply_laplacian(u), apply_laplacian(v)
        assert abs(energy_inner(lu, v) - energy_inner(u, lv)) \
            <= 1e-10 * (1 + abs(energy_inner(lu, v)))
        quad = energy_inner(u, lu)
        assert quad >= -1e-12 * max(energy(u), 1.0)


def test_sum_identity_finite_support_vs_projection():
    # full quadratic sum of v against Lap w equals the energy pairing of
    # the finite part of v with w (the harmonic part of an interior
    # vector is zero, so this reduces to the plain pairing)
    res = build_harmonic_zline(2, 1.0, 30)
    h = res.vector
    g = h.graph
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = random_interior_vector(g, rng)
        w = random_interior_vector(g, rng)
        lhs = float(np.sum(v.values * apply_laplacian(w).values))
        fin_v, _ = project_fin_harm(v, [h])
        rhs = energy_inner(fin_v, w)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))


def test_contractivity_of_identity_plus_laplacian():
    g = build_sym_line(2, 10)
    rng = np.random.default_rng(10)
    for _ in range(100):
        v = random_interior_vector(g, rng)
        shifted = EnergyVector(g, v.values + apply_laplacian(v).values)
        assert np.sqrt(energy(shifted)) >= np.sqrt(energy(v)) * (1 - 1e-12)


def test_sum_s2_finitely_supported_equals_energy():
    g = build_half_line(2, 40)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(g.n_vertices)
    values[g.depths > 5] = 0.0
    u = vector(g, values)
    res = sum_S2(u)
    assert abs(res.total - energy(u)) < 1e-9 * (1 + energy(u))
    assert res.flag == "CONVERGENT"


def test_sum_s2_zero_vector():
    g = build_half_line(2, 16)
    res = sum_S2(constant(g, 0.0))
    assert res.total == 0.0
    assert res.flag == "CONVERGENT"


def test_sum_s2_deficiency_vector_diverges():
    # N stays inside the float-representable regime for the increments;
    # far deeper truncations need the exact square-sum partials carried by
    # the DeficiencySolution itself
    sol = build_deficiency_zplus(2, 40)
    res = sum_S2(sol.vector)
    assert res.flag == "DIVERGENT"
    # the quadratic sum tracks the negated square sums at interior depth
    partial = dict(res.partials)
    assert partial[20] < 0
    assert partial[30] < partial[20]


def test_vector_serialization_roundtrip():
    g = build_half_line(2, 6)
    rng = np.random.default_rng(12)
    u = vector(g, rng.standard_normal(g.n_vertices))
    text = write_vector(u)
    back = read_vector(g, text)
    assert np.array_equal(back.values, u.values)
