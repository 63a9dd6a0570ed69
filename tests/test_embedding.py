import hashlib
import json

import numpy as np
import pytest

from resistnet import embedding
from resistnet.embedding import (
    CompatibilityCertificate, GraphMap, MissingCertificateError, check_compatible,
    compose_maps, dirichlet_monopole, dyadic_pair, pullback, transport_monopole,
    tree_harmonic_direct,
)
from resistnet.energy import (
    EnergyVector, apply_laplacian, constant, energy, random_interior_vector, vector,
)
from resistnet.graphs import build_dyadic_tree, build_half_line, path_graph


def _identity(graph):
    return GraphMap(graph, graph, np.arange(graph.n_vertices), np.ones(graph.n_vertices))


def _check_one_vector_at_a_time(gmap, test_vectors=100, seed=0, tol=1e-10):
    """Reference certificate: one test vector, one EnergyVector round trip at a time."""
    rng = np.random.default_rng(seed)
    worst_iso = 0.0
    worst_int = 0.0
    for _ in range(test_vectors):
        u = random_interior_vector(gmap.target, rng, margin=1)
        e_target = energy(u)
        tu = pullback(gmap, u)
        e_source = energy(tu)
        worst_iso = max(worst_iso, abs(e_source - e_target) / max(e_target, 1e-300))
        lhs = pullback(gmap, apply_laplacian(u)).values
        rhs = gmap.psi * apply_laplacian(tu).values
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        resid = np.abs(lhs - rhs) / scale
        worst_int = max(worst_int, float(np.max(resid[gmap.source.interior_mask])))
    passed = worst_iso <= tol and worst_int <= tol
    return CompatibilityCertificate(passed, test_vectors, seed, worst_iso, worst_int, tol)


def _trial_counts(gmap):
    """1, block - 1, block, block + 1 and 100 test vectors, each at least 1."""
    block = embedding._block_rows(gmap)
    return sorted({n for n in (1, block - 1, block, block + 1, 100) if n >= 1})


def _assert_matches_oracle(gmap, seed):
    for trials in _trial_counts(gmap):
        got = check_compatible(gmap, trials, seed)
        want = _check_one_vector_at_a_time(gmap, trials, seed)
        assert got.to_dict() == want.to_dict(), trials


def test_block_draw_is_the_single_draws():
    single = np.random.default_rng(6)
    block = np.random.default_rng(6).standard_normal((5, 31))
    assert np.array_equal(block, [single.standard_normal(31) for _ in range(5)])


def test_block_rows_bound_the_block():
    assert embedding._block_rows(dyadic_pair(1.0, 2)) == 2 ** 14 // 7
    assert embedding._block_rows(dyadic_pair(1.0, 12)) == 2
    assert embedding._block_rows(dyadic_pair(1.0, 13)) == 1
    assert embedding._block_rows(dyadic_pair(1.0, 16)) == 1


@pytest.mark.parametrize("N", range(2, 14))
def test_blocked_certificate_matches_one_vector_at_a_time(N):
    _assert_matches_oracle(dyadic_pair(1.0, N), seed=N)


@pytest.mark.parametrize("N", [2, 5, 9, 12])
def test_blocked_certificate_matches_on_the_wrong_weight(N):
    gmap = dyadic_pair(0.5, N, wrong_psi=True)
    assert not check_compatible(gmap, 3, seed=1).passed
    _assert_matches_oracle(gmap, seed=40 + N)


def test_blocked_certificate_matches_on_other_maps():
    line = build_half_line(2, 9)
    _assert_matches_oracle(_identity(line), seed=1)
    pair = dyadic_pair(1.0, 6)
    deeper = build_half_line(2, 11)
    inclusion = GraphMap(pair.target, deeper, np.arange(pair.target.n_vertices),
                         np.ones(pair.target.n_vertices))
    _assert_matches_oracle(compose_maps(pair, inclusion), seed=2)
    # psi not constant across the vertices of one depth, and a graph with
    # no frontier, where no test vector entry is zeroed
    tree = build_dyadic_tree(3.0, 7)
    psi = np.random.default_rng(3).uniform(0.5, 2.0, tree.n_vertices)
    _assert_matches_oracle(GraphMap(tree, tree, np.arange(tree.n_vertices), psi), seed=4)
    path = path_graph([1.0, 0.25, 8.0, 2.0])
    _assert_matches_oracle(GraphMap(path, path, [0, 1, 2, 3, 4], [1, 2, 1, 3, 1]), seed=5)


def _poison_target_rows(monkeypatch, gmap, energy_rows, laplacian_rows):
    """Make nan the target energy terms of energy_rows and the target Laplacian
    of laplacian_rows, in every block of check_compatible."""
    terms_and_laplacian = embedding._energy_terms_and_laplacian

    def poisoned(graph, at_x, at_y, ends):
        terms, lap = terms_and_laplacian(graph, at_x, at_y, ends)
        if graph is gmap.target:
            terms[[r for r in energy_rows if r < len(terms)]] = np.nan
            lap[[r for r in laplacian_rows if r < len(lap)]] = np.nan
        return terms, lap

    monkeypatch.setattr(embedding, "_energy_terms_and_laplacian", poisoned)


# the worst values were recorded while the residuals were folded in Python,
# max(worst, x) per row, which keeps worst when x is nan; a nan row fails the
# certificate (case 0 passed while a row it did not check could pass)
NAN_ROW_CERTIFICATES = [
    # (N, wrong_psi, trials, seed, energy rows, Laplacian rows) -> worst isometry,
    # worst intertwining, passed
    ((6, False, 20, 3, [0, 7], [0, 12]), (6.361683335949625e-16, 0.0, False)),
    ((6, True, 20, 5, [3], [0, 19]), (3.7440607168488316e-16, 0.9687500000000001, False)),
    # blocks of two rows: the energy of every first row, the Laplacian of every second
    ((12, True, 5, 2, [0], [1]), (1.8289119331663685e-16, 0.9995117187500001, False)),
]


@pytest.mark.parametrize("case,want", NAN_ROW_CERTIFICATES)
def test_nan_residual_rows_are_skipped_by_the_fold(monkeypatch, case, want):
    N, wrong_psi, trials, seed, energy_rows, laplacian_rows = case
    gmap = dyadic_pair(1.0, N, wrong_psi=wrong_psi)
    _poison_target_rows(monkeypatch, gmap, energy_rows, laplacian_rows)
    cert = check_compatible(gmap, trials, seed)
    assert (cert.max_isometry_rel, cert.max_intertwine_resid, cert.passed) == want


def test_certificate_fails_on_a_row_whose_energy_overflows():
    # conductances 1e307: some rows' energies overflow on both graphs, and
    # their isometry residual inf - inf is nan; the finite rows pass
    with np.errstate(all="ignore"):
        cert = check_compatible(dyadic_pair(1e307, 3), 100, 0)
    assert (cert.passed, cert.n_vectors) == (False, 100)
    assert (cert.max_isometry_rel, cert.max_intertwine_resid) == (6.633703806876183e-16, 0.0)


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
    gmap = _identity(g)
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
    w = dirichlet_monopole(gmap.target)
    with pytest.raises(MissingCertificateError):
        transport_monopole(gmap, w)


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
        res = tree_harmonic_direct(build_dyadic_tree(1.0, N))
        assert res.root_value == 0.0
        assert res.antisymmetric_ok
        assert res.interior_residual <= 1e-10
        assert res.energy_value > 0.5


def test_tree_harmonic_pins_the_leaves_under_each_child(monkeypatch):
    captured = []
    embedding_solve = embedding.solve_reduced

    def solve(graph, shift, rhs, fixed, fixed_values, tol):
        captured.append((rhs.copy(), fixed.copy(), fixed_values.copy()))
        return embedding_solve(graph, shift, rhs, fixed, fixed_values, tol)

    monkeypatch.setattr(embedding, "solve_reduced", solve)
    N = 6
    tree_harmonic_direct(build_dyadic_tree(1.0, N))
    [(rhs, fixed, fixed_values)] = captured
    leaves = range(2 ** N - 1, 2 ** (N + 1) - 1)
    assert not rhs.any()
    assert np.flatnonzero(fixed).tolist() == list(leaves)
    for i in leaves:
        assert fixed_values[i] == (1.0 if bin(i + 1)[3:].startswith("0") else -1.0)


@pytest.mark.parametrize("word", ["1", "10", "1110"])
def test_tree_harmonic_mirror_check_fails_on_a_perturbed_value(monkeypatch, word):
    embedding_solve = embedding.solve_reduced

    def solve(graph, shift, rhs, fixed, fixed_values, tol):
        values, diag = embedding_solve(graph, shift, rhs, fixed, fixed_values, tol)
        values[int("1" + word, 2) - 1] += 1e-3     # the heap index of the word
        return values, diag

    monkeypatch.setattr(embedding, "solve_reduced", solve)
    assert not tree_harmonic_direct(build_dyadic_tree(1.0, 5)).antisymmetric_ok


def test_tree_harmonic_energy_increments_decay():
    energies = [tree_harmonic_direct(build_dyadic_tree(1.0, n)).energy_value
                for n in (4, 5, 6, 7)]
    increments = np.diff(energies)
    ratios = increments[1:] / increments[:-1]
    assert np.all(ratios < 0.95)
    # constant conductance halves the added energy per level, roughly
    assert np.all(np.abs(ratios - 0.5) < 0.2)


# sha256 of json.dumps(to_dict(), sort_keys=True) and of the vector's values as
# little-endian float64, recorded while tree_harmonic_direct took (c_const, N)
# and built its own tree
TREE_HARMONIC_DIGESTS = {
    3: ("c83413ebe27c10df75644497d32521bde96c9e624437a051ed7830e2fd196412",
        "c00aa2315774a9fdd7567001d68c5959661d68272d2bda7b4991de16eb39dc10"),
    4: ("64d375730990c5448f648e679831af83238ab1e611eb91bab6c51b9c8e21aa37",
        "93326c9b078990029e987f41f208469279a253c3531450ca9154c6210a67f728"),
    5: ("76c5f3d14e7f68c223cfafe5fa3f871ee8c7fda82b829f5f4fde2305d9762461",
        "b15c0382abea7c79a5ad09473cf6e3c138ecb061d2866b630edeec851a3d3f5e"),
    6: ("8cbb2488385074554dcea45eee84ede6c69ae65024b0cae8f8fdba0a1d101814",
        "6449ff56e65c7db7d43366659a4d208794a31e661e9ae7040cb1e0c77c8febe0"),
    7: ("cb66c9c5205f210970f73567f2014c53e67607ce13016151d38baccb761e084a",
        "57521bf9dae07bb85ffc74885ee553ac1a0101e2256c8163767d21bec08ca4cb"),
    8: ("d72a0bfdb3c4bc8d99c3c10b8e1aa1da5f26fb2a4c5017b8a5d5e0ccff5797e6",
        "e5aa4852da7784391c98c02651de8b86655d3bd598b5675df834ce78c3d0e0c8"),
}


@pytest.mark.parametrize("N", sorted(TREE_HARMONIC_DIGESTS))
def test_tree_harmonic_on_a_built_tree_is_pinned(N):
    res = tree_harmonic_direct(build_dyadic_tree(1.0, N))
    record = json.dumps(res.to_dict(), sort_keys=True).encode()
    values = np.asarray(res.vector.values, dtype="<f8").tobytes()
    assert (hashlib.sha256(record).hexdigest(),
            hashlib.sha256(values).hexdigest()) == TREE_HARMONIC_DIGESTS[N]


def test_tree_harmonic_reads_depth_and_conductance_from_the_tree():
    tree = build_dyadic_tree(0.25, 5)
    res = tree_harmonic_direct(tree)
    assert (res.N, res.c_const) == (5, 0.25)
    assert res.vector.graph is tree


@pytest.mark.parametrize("graph", [
    build_half_line(2, 6),              # a truncation, but not a tree
    build_dyadic_tree(1.0, 2),          # a tree too shallow for interior structure
    path_graph([1.0, 1.0, 1.0]),        # no truncation at all
], ids=["half-line", "depth-2-tree", "no-truncation"])
def test_tree_harmonic_refuses_what_is_not_a_deep_enough_tree(graph):
    with pytest.raises(ValueError, match="need a dyadic tree of depth N >= 3"):
        tree_harmonic_direct(graph)


def test_functoriality_identity_and_composition():
    gmap = dyadic_pair(1.0, 5)
    ident = _identity(gmap.source)
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
    other = _identity(build_dyadic_tree(1.0, 3))
    with pytest.raises(ValueError):
        compose_maps(gmap, other)


def test_graph_map_rejects_nan_psi():
    g = path_graph([1.0, 1.0])
    with pytest.raises(ValueError, match="psi must be positive"):
        GraphMap(g, g, [0, 1, 2], [1.0, np.nan, 1.0])


@pytest.mark.parametrize("phi", [[0.0, 1.7, 2.9], [0, 1, 0.5], [0.0, np.nan, 1.0],
                                 [0.0, 1.0, np.inf]])
def test_graph_map_rejects_phi_that_is_not_an_integer(phi):
    g = path_graph([1.0, 1.0])
    with pytest.raises(ValueError, match="phi must map to integer vertex indices"):
        GraphMap(g, g, phi, [1, 1, 1])


def test_graph_map_accepts_integral_float_phi():
    g = path_graph([1.0, 1.0])
    gmap = GraphMap(g, g, [2.0, 0.0, -0.0], [1, 1, 1])
    assert gmap.phi.tolist() == [2, 0, 0]
    assert gmap.phi.dtype.kind == "i"
