import numpy as np
import pytest

from resistnet.embedding import (
    GraphMap, MissingCertificateError, check_compatible, compose_maps,
    dirichlet_monopole, dyadic_pair, identity_map, pullback, read_map,
    transport_harmonic, transport_monopole, tree_harmonic_direct,
    tree_harmonic_energy_curve, write_map,
)
from resistnet.energy import (
    EnergyVector, apply_laplacian, constant, energy, vector,
)
from resistnet.graphs import build_dyadic_tree, build_half_line


def test_pullback_constant():
    gmap = dyadic_pair(1.0, 4)
    u = constant(gmap.target, 3.0)
    tu = pullback(gmap, u)
    assert np.all(tu.values == 3.0)


def test_pullback_depth_function():
    gmap = dyadic_pair(1.0, 4)
    rng = np.random.default_rng(20)
    u = vector(gmap.target, rng.standard_normal(5))
    tu = pullback(gmap, u)
    for i, word in enumerate(gmap.source.labels):
        assert tu.values[i] == u.values[len(word)]


def test_pullback_rejects_shallow_target():
    gmap = dyadic_pair(1.0, 5)
    short = build_half_line(2, 3)
    u = constant(short, 1.0)
    with pytest.raises(ValueError):
        pullback(gmap, u)


def test_dyadic_pair_certificate_passes():
    gmap = dyadic_pair(1.0, 6)
    cert = check_compatible(gmap, test_vectors=100, seed=3)
    assert cert.passed
    assert cert.max_isometry_rel <= 1e-10
    assert cert.max_intertwine_resid <= 1e-10


def test_identity_map_certificate():
    g = build_half_line(2, 8)
    gmap = identity_map(g)
    cert = check_compatible(gmap, test_vectors=20, seed=4)
    assert cert.passed


def test_wrong_weight_fails_intertwining():
    gmap = dyadic_pair(1.0, 5, wrong_psi=True)
    cert = check_compatible(gmap, test_vectors=20, seed=5)
    assert not cert.passed
    assert cert.max_isometry_rel <= 1e-10       # isometry ignores psi
    assert cert.max_intertwine_resid > 1e-2


def test_wrong_weight_hand_computation():
    # at a depth-1 tree vertex the unweighted source row reads
    # (u(1) - u(0)) + 2 (u(1) - u(2)) while the target row carries the
    # doubled conductances 2 (u(1) - u(0)) + 4 (u(1) - u(2)); psi = 2
    # reconciles them and psi = 1 cannot
    gmap = dyadic_pair(1.0, 3)
    u = vector(gmap.target, np.array([0.3, -1.2, 0.7, 0.4]))
    lap_h = apply_laplacian(u).values
    tu = pullback(gmap, u)
    lap_g = apply_laplacian(tu).values
    v1 = 1  # the vertex labeled "0", at depth 1
    assert gmap.source.labels[v1] == "0"
    hand_source = (u.values[1] - u.values[0]) + 2 * (u.values[1] - u.values[2])
    assert abs(lap_g[v1] - hand_source) < 1e-14
    assert abs(2.0 * lap_g[v1] - lap_h[1]) < 1e-14
    assert abs(1.0 * lap_g[v1] - lap_h[1]) > 0.1


def test_energy_isometry_exact_on_full_vectors():
    gmap = dyadic_pair(1.0, 6)
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = vector(gmap.target, rng.standard_normal(7))
        assert abs(energy(pullback(gmap, u)) - energy(u)) \
            <= 1e-12 * (1 + energy(u))


def test_transport_requires_certificate():
    gmap = dyadic_pair(1.0, 4)
    u = constant(gmap.target, 1.0)
    with pytest.raises(MissingCertificateError):
        transport_harmonic(gmap, u)


def test_transport_constant_harmonic():
    gmap = dyadic_pair(1.0, 4)
    gmap = gmap.with_certificate(check_compatible(gmap, 20, seed=6))
    tu, resid = transport_harmonic(gmap, constant(gmap.target, 2.0))
    assert np.all(tu.values == 2.0)
    assert resid == 0.0


def test_transport_harmonic_residual_bound():
    # through the identity map the source residual cannot exceed
    # max(1/psi) times the target residual plus rounding slack
    from resistnet.boundary import build_harmonic_zline

    harm = build_harmonic_zline(2, 1.0, 30)
    g = harm.vector.graph
    gmap = identity_map(g)
    gmap = gmap.with_certificate(check_compatible(gmap, 10, seed=10))
    lap = apply_laplacian(harm.vector).values
    target_resid = float(np.max(np.abs(lap[g.interior_mask])))
    tu, resid = transport_harmonic(gmap, harm.vector)
    assert resid <= float(np.max(1.0 / gmap.psi)) * target_resid + 1e-12
    assert np.array_equal(tu.values, harm.vector.values)


def test_monopole_transport():
    gmap = dyadic_pair(1.0, 8)
    gmap = gmap.with_certificate(check_compatible(gmap, 30, seed=7))
    w = dirichlet_monopole(gmap.target)
    lap_w = apply_laplacian(w).values
    target_row = np.zeros(w.graph.n_vertices)
    target_row[w.graph.base_vertex] = 1.0
    assert np.max(np.abs((lap_w + target_row)[w.graph.interior_mask])) <= 1e-9
    tw, resid = transport_monopole(gmap, w)
    assert resid <= 1e-8
    # monopole energy stays bounded in the truncation depth
    energies = []
    for depth in (4, 6, 8):
        gm = dyadic_pair(1.0, depth)
        gm = gm.with_certificate(check_compatible(gm, 10, seed=8))
        wm = dirichlet_monopole(gm.target)
        twm, _ = transport_monopole(gm, wm)
        energies.append(energy(twm))
    increments = np.diff(energies)
    assert increments[-1] < 0.95 * max(increments[0], 1e-12) or increments[-1] < 1e-12


def test_monopole_transport_constant_shift_invariant():
    gmap = dyadic_pair(1.0, 6)
    gmap = gmap.with_certificate(check_compatible(gmap, 10, seed=9))
    w = dirichlet_monopole(gmap.target)
    shifted = EnergyVector(w.graph, w.values + 4.0)
    tw, resid = transport_monopole(gmap, w)
    tw2, resid2 = transport_monopole(gmap, shifted)
    assert abs(energy(tw) - energy(tw2)) < 1e-12 * (1 + energy(tw))
    assert resid2 <= 1e-8


def test_tree_harmonic_direct():
    for N in (5, 10):
        res = tree_harmonic_direct(1.0, N)
        assert res.root_value == 0.0
        assert res.antisymmetric_ok
        assert res.interior_residual <= 1e-10
        assert res.energy_value > 0.5


def test_tree_harmonic_energy_increments_decay():
    curve = tree_harmonic_energy_curve(1.0, [4, 5, 6, 7])
    energies = [e for _, e in curve]
    increments = np.diff(energies)
    ratios = increments[1:] / increments[:-1]
    assert np.all(ratios < 0.95)
    # constant conductance halves the added energy per level, roughly
    assert np.all(np.abs(ratios - 0.5) < 0.2)


def test_tree_harmonic_needs_depth():
    with pytest.raises(ValueError):
        tree_harmonic_direct(1.0, 2)


def test_functoriality_identity_and_composition():
    gmap = dyadic_pair(1.0, 5)
    ident = identity_map(gmap.source)
    rng = np.random.default_rng(22)
    u = vector(gmap.source, rng.standard_normal(gmap.source.n_vertices))
    assert np.array_equal(pullback(ident, u).values, u.values)

    deeper = build_half_line(2, 9)
    inclusion = GraphMap(gmap.target, deeper,
                         np.arange(gmap.target.n_vertices),
                         np.ones(gmap.target.n_vertices))
    composed = compose_maps(gmap, inclusion)
    w = vector(deeper, rng.standard_normal(deeper.n_vertices))
    direct = pullback(composed, w).values
    staged = pullback(gmap, pullback(inclusion, w)).values
    assert np.array_equal(direct, staged)


def test_compose_rejects_mismatched_chain():
    gmap = dyadic_pair(1.0, 4)
    other = identity_map(build_dyadic_tree(1.0, 3))
    with pytest.raises(ValueError):
        compose_maps(gmap, other)


def test_map_serialization_roundtrip():
    gmap = dyadic_pair(1.0, 4)
    text = write_map(gmap)
    back = read_map(gmap.source, gmap.target, text)
    assert np.array_equal(back.phi, gmap.phi)
    assert np.array_equal(back.psi, gmap.psi)
