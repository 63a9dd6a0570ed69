"""Acceptance suite: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines; every tolerance is pinned here, nothing is deferred to runtime
configuration.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from resistnet import cli
from resistnet.boundary import (
    build_deficiency_zplus, build_harmonic_zline, classify_model,
    resolvent_delta, space_decomposition_check,
)
from resistnet.embedding import (
    check_compatible, dirichlet_monopole, dyadic_pair, transport_monopole,
)
from resistnet.energy import (
    EnergyVector, apply_laplacian, energy, energy_inner, solve_dipole, vector,
)
from resistnet.graphs import (
    HALF_LINE_GEOM, LINE_GEOM_SYM, build_ab_line, build_dyadic_tree, build_half_line,
    build_sym_line, path_graph,
)
from resistnet.polynomials import (
    check_identity_P, check_identity_Q, check_repr_P, check_repr_Q,
    pair_sequence, pair_values_sequence,
)
from resistnet.walk import (
    apply_transfer, frequency_check, kernel_from_graph, simulate,
)

from graph_oracles import adjacency_by_edges


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number, name, ok, timer, budget):
    status = "PASS" if ok and timer.elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} "
          f"({timer.elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok
    assert timer.elapsed < budget


def test_01_polynomial_table_reproduction():
    with _Timer() as t:
        pairs = pair_sequence(3)
        ok = (pairs[1].p.coeffs == (1,)
              and pairs[1].q.coeffs == (1, 1)
              and pairs[2].p.coeffs == (2, 1)
              and pairs[2].q.coeffs == (1, 1, 2, 1)
              and pairs[3].p.coeffs == (3, 2, 2, 1)
              and pairs[3].q.coeffs == (1, 1, 2, 4, 2, 2, 1))
    _report(1, "polynomial-table-reproduction", ok, t, 1.0)


def test_02_degree_and_endpoint_laws():
    with _Timer() as t:
        pairs = pair_sequence(60)
        ok = True
        for n in range(1, 61):
            p, q = pairs[n].p, pairs[n].q
            ok = ok and q.degree == n * (n + 1) // 2
            ok = ok and q.coefficient(0) == 1 and q.leading() == 1
            ok = ok and p.coefficient(0) == n and p.leading() == 1
            ok = ok and p.degree == (n - 1) * n // 2
    _report(2, "degree-endpoint-laws-n60", ok, t, 10.0)


def test_03_generating_function_identities():
    with _Timer() as t:
        ok = (check_identity_P(12) and check_identity_Q(12)
              and check_repr_P(12, 12) and check_repr_Q(12, 12))
    _report(3, "generating-function-identities-k12", ok, t, 30.0)


def test_04_harmonic_energy_closed_form():
    with _Timer() as t:
        res = build_harmonic_zline(2, 1.0, 40)
        ok = abs(res.energy_partial - 2.0) < 1e-10
    _report(4, "harmonic-energy-closed-form", ok, t, 1.0)


def test_05_deficiency_dichotomy():
    with _Timer() as t:
        sol = build_deficiency_zplus(2, 200)
        values = pair_values_sequence(Fraction(1, 2), 200)
        tail_increment = float(Fraction(1, 2) ** 200 * values[200][0] ** 2)
        window_marks = dict(sol.energy_partials)
        window_increment = abs(window_marks[200] - window_marks[150])
        ok = (sol.interior_residual_exact_zero
              and tail_increment < 1e-12
              and window_increment < 1e-12
              and sol.energy_flag == "CONVERGENT"
              and sol.l2_flag == "DIVERGENT")
    _report(5, "deficiency-dichotomy-n200", ok, t, 10.0)


def test_06_classification_hard_entries():
    with _Timer() as t:
        ok = True
        for m_ratio in (1.5, 2.0, 4.0):
            rep = classify_model(HALF_LINE_GEOM, m_ratio, 120)
            ok = ok and rep.harm_dim == 0 and rep.def_dim == 1
            ok = ok and rep.hard_expectations_ok
        rep = classify_model(LINE_GEOM_SYM, 2.0, 120)
        ok = ok and rep.harm_dim == 1 and rep.hard_expectations_ok
    _report(6, "classification-hard-entries", ok, t, 30.0)


def _reproducing_checks(graph, rng, sample_size=3):
    o = graph.base_vertex
    candidates = [x for x in range(graph.n_vertices) if x != o]
    xs = rng.choice(candidates, min(sample_size, len(candidates)), replace=False)
    dipoles = {o: np.zeros(graph.n_vertices)}
    worst_residual = 0.0
    worst_reproducing = 0.0
    for x in xs:
        x = int(x)
        v = solve_dipole(graph, x)
        dipoles[x] = v.values
        lap = apply_laplacian(v).values
        target = np.zeros(graph.n_vertices)
        target[x], target[o] = 1.0, -1.0
        worst_residual = max(worst_residual, float(np.max(np.abs(lap - target))))
        for _ in range(20):
            u = vector(graph, rng.standard_normal(graph.n_vertices))
            gap = abs(energy_inner(v, u) - (u.values[x] - u.values[o]))
            worst_reproducing = max(worst_reproducing, gap)
    # delta reconstruction at an interior non-base vertex
    worst_reconstruction = 0.0
    interior = [x for x in range(graph.n_vertices)
                if graph.interior_mask[x] and x != o]
    for x in rng.choice(interior, min(2, len(interior)), replace=False):
        x = int(x)
        if x not in dipoles:
            dipoles[x] = solve_dipole(graph, x).values
        combo = graph.vertex_weights[x] * dipoles[x]
        for y, c in adjacency_by_edges(graph)[x]:
            if y not in dipoles:
                dipoles[y] = solve_dipole(graph, y).values if y != o \
                    else np.zeros(graph.n_vertices)
            combo = combo - c * dipoles[y]
        target = np.zeros(graph.n_vertices)
        target[x] = 1.0
        worst_reconstruction = max(worst_reconstruction,
                                   float(np.max(np.abs(combo - target))))
    return worst_residual, worst_reproducing, worst_reconstruction


def test_07_reproducing_identities():
    with _Timer() as t:
        rng = np.random.default_rng(2024)
        ok = True
        for graph in (path_graph([1.0, 1.0]),
                      build_half_line(2, 16),
                      build_sym_line(2, 12),
                      build_ab_line(2, 3, 10),
                      build_dyadic_tree(1.0, 5)):
            resid, repro, recon = _reproducing_checks(graph, rng)
            ok = ok and resid <= 1e-9 and repro <= 1e-8 and recon <= 1e-9
    _report(7, "dipole-reproducing-identities", ok, t, 30.0)


def test_08_transfer_identity_and_monte_carlo():
    with _Timer() as t:
        ok = True
        rng = np.random.default_rng(5)
        for graph in (build_half_line(2, 20), build_sym_line(2, 12),
                      build_ab_line(2, 3, 10), build_dyadic_tree(1.0, 5)):
            kernel = kernel_from_graph(graph)
            interior = graph.interior_mask
            for _ in range(50):
                f = vector(graph, rng.standard_normal(graph.n_vertices))
                tf = apply_transfer(kernel, f).values
                expected = f.values - apply_laplacian(f).values / graph.vertex_weights
                ok = ok and float(np.max(np.abs((tf - expected)[interior]))) <= 1e-12
        graph = build_half_line(2, 30)
        kernel = kernel_from_graph(graph)
        stats = simulate(kernel, 5, 1, 1000000, seed=7)
        emp = stats.edge_counts[(5, 6)] / 1000000
        p = 2.0 / 3.0
        sigma = (p * (1 - p) / 1000000) ** 0.5
        ok = ok and abs(emp - p) <= 4 * sigma
        ok = ok and frequency_check(stats, kernel).all_within_band
    _report(8, "transfer-identity-and-monte-carlo", ok, t, 60.0)


def test_09_embedding_certificate():
    with _Timer() as t:
        gmap = dyadic_pair(1.0, 8)
        cert = check_compatible(gmap, test_vectors=100, seed=11, tol=1e-10)
        ok = cert.passed
        gmap = gmap.with_certificate(cert)
        w = dirichlet_monopole(gmap.target)
        _tw, resid = transport_monopole(gmap, w)
        ok = ok and resid <= 1e-8
    _report(9, "embedding-certificate-depth8", ok, t, 60.0)


def test_10_resolvent_contract():
    with _Timer() as t:
        ok = True
        # all-interior graph: the interior quadratic sum is the full one
        res = resolvent_delta(path_graph([1.0, 1.0]), 1)
        ok = ok and res.residual_inf <= 1e-10 and res.l2_norm <= 1.0
        ok = ok and res.punctured_residual_inf <= 1e-9
        ok = ok and res.energy_identity_rel <= 1e-8
        # free truncations: equation, contractivity, punctured equation,
        # and the full quadratic sum; the interior variant needs the
        # frontier pinned (below) because the free cut leaves a flat tail
        for graph, x in ((build_half_line(2, 24), 3),
                         (build_sym_line(2, 12), 14),
                         (build_dyadic_tree(1.0, 8), 2)):
            free = resolvent_delta(graph, x, boundary="free")
            ok = ok and free.residual_inf <= 1e-10
            ok = ok and free.punctured_residual_inf <= 1e-9
            ok = ok and free.l2_norm <= 1.0 and free.contractive_ok
            ok = ok and free.energy_identity_full_rel <= 1e-8
            pinned = resolvent_delta(graph, x, boundary="dirichlet")
            ok = ok and pinned.residual_inf <= 1e-10
            ok = ok and pinned.punctured_residual_inf <= 1e-9
            ok = ok and pinned.l2_norm <= 1.0
            ok = ok and pinned.energy_identity_rel <= 1e-8
    _report(10, "resolvent-contract", ok, t, 30.0)


def test_11_energy_decomposition():
    with _Timer() as t:
        harm = build_harmonic_zline(2, 1.0, 200)
        graph = harm.vector.graph
        rng = np.random.default_rng(31)
        ok = True
        for _ in range(20):
            values = rng.standard_normal(graph.n_vertices)
            values[np.abs(np.arange(graph.n_vertices) - graph.base_vertex) > 12] = 0.0
            res = space_decomposition_check(EnergyVector(graph, values),
                                            [harm.vector])
            ok = ok and res.residual_rel <= 1e-6
    _report(11, "energy-decomposition-sym-line", ok, t, 30.0)


def test_12_seeded_rerun_determinism(tmp_path, capsys):
    with _Timer() as t:
        argv = ["walk", "--model", "half-line", "--M", "2", "--N", "20",
                "--start", "4", "--steps", "2", "--trials", "20000",
                "--seed", "123"]
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        echo = tmp_path / "echo.json"
        echo.write_text(out1)
        code2 = cli.main(["replay", str(echo)])
        out2 = capsys.readouterr().out
        ok = code1 == 0 and code2 == 0 and out1 == out2

        code3 = cli.main(["embed", "--N", "5", "--trials", "20", "--seed", "3"])
        out3 = capsys.readouterr().out
        echo2 = tmp_path / "echo2.json"
        echo2.write_text(out3)
        code4 = cli.main(["replay", str(echo2)])
        out4 = capsys.readouterr().out
        ok = ok and code3 == 0 and code4 == 0 and out3 == out4
        ok = ok and json.loads(out3)["config"]["seed"] == 3
    with capsys.disabled():
        _report(12, "seeded-rerun-determinism", ok, t, 10.0)
