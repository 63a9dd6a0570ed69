import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from resistnet import boundary, cli
from resistnet.boundary import (
    _side, build_deficiency_zline, build_deficiency_zplus, build_harmonic_zline,
    build_harmonic_zplus, classify_model, resolvent_delta,
    solve_ab_deficiency, space_decomposition_check, tail_flag,
)
from resistnet.energy import (
    EnergyVector, apply_laplacian, energy, random_interior_vector, sum_S2, vector,
)
from resistnet.graphs import (
    DYADIC_TREE, HALF_LINE_GEOM, LINE_AB, LINE_GEOM_SYM, WeightedGraph, build_dyadic_tree,
    build_half_line, build_sym_line, path_graph,
)
from resistnet.polynomials import _scaled_pairs
from resistnet.walk import kernel_from_graph, transfer_iterate


# -- harmonic vectors ---------------------------------------------------------

@pytest.mark.parametrize("m_ratio", [1.5, 2.0, 7.0])
def test_half_line_has_no_nonconstant_harmonic(m_ratio):
    res = build_harmonic_zplus(m_ratio, 50)
    assert res.verdict == "HARM_TRIVIAL"
    assert res.forced_first_increment == 0.0
    assert res.propagated_max_abs == 0.0


def test_sym_line_harmonic_closed_form_energy():
    res = build_harmonic_zline(2, 1.0, 40)
    assert abs(res.energy_partial - 2.0) < 1e-10
    assert res.energy_limit == 2.0
    assert res.interior_residual <= 1e-12
    g = res.vector.graph
    assert res.vector.values[g.index_of(1)] == 0.5
    assert res.antisymmetric_ok


def test_sym_line_harmonic_deep_truncation():
    res = build_harmonic_zline(2, 1.0, 200)
    assert res.interior_residual <= 1e-12
    assert abs(res.energy_partial - res.energy_partial_closed) <= 1e-10 * res.energy_limit


def test_sym_line_harmonic_rejects_zero_slope():
    with pytest.raises(ValueError):
        build_harmonic_zline(2, 0.0, 10)


# -- defect eigenvectors -------------------------------------------------------

def test_half_line_deficiency_matches_polynomial_values():
    sol = build_deficiency_zplus(2, 200)
    assert sol.u_exact[0] == 1
    assert sol.u_exact[1] == Fraction(3, 2)
    assert sol.u_exact[2] == Fraction(17, 8)
    assert sol.u_exact[3] == Fraction(173, 64)
    assert sol.seed_relation_ok
    assert sol.flux_recursion_ok


def test_half_line_deficiency_exact_interior_residual():
    sol = build_deficiency_zplus(2, 200)
    assert sol.interior_residual_exact_zero
    assert sol.float_residual_rel_max < 1e-9


def test_deficiency_increments_match_value_differences_exactly():
    for sol in (build_deficiency_zplus(2, 80), build_deficiency_zline(2, 80)):
        for x in range(1, 81):
            assert sol.du_exact[x - 1] == sol.u_exact[x] - sol.u_exact[x - 1]
            assert sol.du_exact[x - 1] > 0


def test_half_line_deficiency_dichotomy():
    sol = build_deficiency_zplus(2, 200)
    assert sol.energy_flag == "CONVERGENT"
    assert sol.l2_flag == "DIVERGENT"
    # square sums really do grow at least linearly at the minimum value
    depth, last = sol.l2_partials[-1]
    assert depth == 200
    assert last >= 0.9 * 200 * float(min(abs(v) for v in sol.u_exact)) ** 2


@pytest.mark.parametrize("m_ratio", [1.5, 2.0, 4.0])
def test_half_line_dichotomy_across_ratios(m_ratio):
    sol = build_deficiency_zplus(m_ratio, 200)
    assert sol.interior_residual_exact_zero
    assert sol.energy_flag == "CONVERGENT"
    assert sol.l2_flag == "DIVERGENT"
    assert sol.monotone_ok
    assert sol.within_bound


def test_half_line_deficiency_rational_residual_oracle():
    # independent evaluation of the defect row in exact arithmetic
    sol = build_deficiency_zplus(2, 60)
    u = sol.u_exact
    m = Fraction(2)
    for x in range(1, 59):
        row = m ** x * (u[x] - u[x - 1]) + m ** (x + 1) * (u[x] - u[x + 1])
        assert row == -u[x]


def test_sym_line_deficiency_seed_and_symmetry():
    sol = build_deficiency_zline(2, 100)
    assert sol.u_exact[1] == Fraction(5, 4)        # 1 + xi/2 at xi = 1/2
    assert sol.seed_relation_ok
    assert sol.interior_residual_exact_zero
    g = sol.vector.graph
    vals = sol.vector.values
    for x in range(101):
        assert vals[g.index_of(-x)] == vals[g.index_of(x)]


def test_sym_line_deficiency_vertex_zero_row_exact():
    sol = build_deficiency_zline(2, 40)
    u = sol.u_exact
    assert Fraction(2) * (2 * u[0] - 2 * u[1]) + u[0] == 0


def test_sym_line_deficiency_energy_classification():
    sol = build_deficiency_zline(2, 100)
    assert sol.classification == "FINITE"
    assert sol.monotone_ok


def test_sym_line_deficiency_matrix_product_oracle():
    # u(x) is the second component of the product of the step matrices
    # [[1, 1], [xi^k, 1 + xi^k]], k = x down to 2, applied to the seed
    # (1/2, 1 + xi/2) scaled by u(0)
    sol = build_deficiency_zline(2, 12)
    xi = Fraction(1, 2)
    vec = (Fraction(1, 2), 1 + xi / 2)
    for x in range(2, 13):
        xk = xi ** x
        vec = (vec[0] + vec[1], xk * vec[0] + (1 + xk) * vec[1])
        assert sol.u_exact[x] == vec[1]


@pytest.mark.parametrize("ratio", [2, 1.5, 3])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 2)])
def test_side_kernel_checks_hold_for_any_share(ratio, lam):
    xi = 1 / Fraction(ratio)
    head, seed_ok, zero_row_ok, rows_ok, *_ = _side(xi, 10, lam)
    assert seed_ok and zero_row_ok and rows_ok
    u0, u1 = (Fraction(Q, D) for _P, Q, _R, D in head)
    assert u1 == (1 + lam * xi) * u0
    assert (1 / lam) * (1 / xi) * (u0 - u1) + u0 == 0
    # the kept head rows are rows 0 and 1 of the recursion
    assert head == list(islice(_scaled_pairs(xi, (lam - 1, 1)), 2))


ROW_CHECK_XIS = [Fraction(1, 2), Fraction(2, 3), 1 / Fraction(1.1), Fraction(5, 12)]


@pytest.mark.parametrize("xi", ROW_CHECK_XIS)
@pytest.mark.parametrize("seed", [(0, 1), (Fraction(-1, 2), 1)])
def test_side_row_checks_agree_with_the_rational_rows(xi, seed, monkeypatch):
    # the rows of Lap u = -u with mu(x) = xi^-x, on Fractions, hold for the
    # recursion's rows and fail once any one Q_x is off by one; the side
    # kernel, fed those rows, agrees each time: the interior rows fail for
    # every x, the seed and vertex-0 checks for x = 0 and 1 only
    N = 30
    lam = seed[0] + 1
    rows = list(islice(_scaled_pairs(xi, seed), N + 1))
    Q = [Q for _P, Q, _R, _D in rows]

    def rational_rows_hold(Q):
        u = [Fraction(q, D) for q, (_P, _Q, _R, D) in zip(Q, rows)]
        return all((u[x] - u[x - 1]) / xi ** x + (u[x] - u[x + 1]) / xi ** (x + 1) + u[x] == 0
                   for x in range(1, N))

    def rational_zero_row_holds(Q):
        u0, u1 = Fraction(Q[0], rows[0][3]), Fraction(Q[1], rows[1][3])
        return (u0 - u1) / (lam * xi) + u0 == 0

    def kernel_checks(Q):
        # rows beyond N + 1 would raise: the kernel reads exactly rows 0..N
        fed = [(P, q, R, D) for q, (P, _Q, R, D) in zip(Q, rows)]
        monkeypatch.setattr(boundary, "_scaled_pairs", lambda xi_, seed_: iter(fed + [None]))
        _head, seed_ok, zero_row_ok, rows_ok, *_ = _side(xi, N, lam)
        return seed_ok, zero_row_ok, rows_ok

    assert rational_rows_hold(Q) and rational_zero_row_holds(Q)
    assert kernel_checks(Q) == (True, True, True)
    for x in (0, 1, N // 2, N):
        for delta in (1, -1):
            bad = list(Q)
            bad[x] += delta
            assert not rational_rows_hold(bad)
            assert rational_zero_row_holds(bad) == (x > 1)
            assert kernel_checks(bad) == (x > 1, x > 1, False), (x, delta)


# -- two-ratio model -------------------------------------------------------------

def test_ab_deficiency_reports_inconsistency():
    rep = solve_ab_deficiency(2, 3, 50)
    assert rep.alpha == Fraction(1, 2)
    assert rep.beta == Fraction(1, 3)
    assert rep.literal_u1 == Fraction(3, 2)        # q_1(1/2)
    assert rep.literal_um1 == Fraction(4, 3)       # q_1(1/3)
    assert rep.normalization_sum == 2
    assert rep.normalization_flag == "INCONSISTENT_AS_WRITTEN"
    assert rep.literal_vertex0_residual == -1


def test_ab_deficiency_repaired_candidate():
    rep = solve_ab_deficiency(2, 3, 50)
    assert rep.repaired_lambda_plus + rep.repaired_lambda_minus == 1
    assert rep.repaired_vertex0_residual == 0
    # matrix-product oracle for the literal positive side: u(2) = q_2(1/2)
    assert rep.literal_values_pos[2] == Fraction(17, 8)


def test_ab_symmetric_case_reduces_to_sym_line():
    rep = solve_ab_deficiency(2, 2, 60)
    sol = build_deficiency_zline(2, 60)
    assert rep.repaired_values_pos == sol.u_exact
    assert rep.repaired_values_neg == sol.u_exact
    assert rep.repaired_vertex0_residual == 0


# -- pinned reports ------------------------------------------------------------------

def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# sha256 of json.dumps(to_dict(), sort_keys=True); the half line at M = 1.1
# is the uncertified window of test_classify_half_line_uncertified_window_is_inconclusive.
# The sum_S2, space_decomposition_check and transfer_iterate records reach no
# pinned CLI output; their digests were recorded from the hand-listed to_dict
# each had before record_dict. The first three were re-recorded when the
# defect residual stopped reading the graph (see RESIDUAL_MOVES).
PINNED_REPORTS = [
    (lambda: build_deficiency_zplus(1.5, 40),
     "e2c3c3df3a1b40cd79704ed3588fb8924230e872a0c86dcc51d7b52cc4905478"),
    (lambda: build_deficiency_zline(1.5, 40),
     "7e3f596474f8202ba6c335619fe8c5b5b288bf6d12400f627d182074da3df950"),
    (lambda: build_deficiency_zplus(1.1, 60),
     "bc3aef00edf4c3eea97d8d011b3e1a4aca7fbdc5050dbe2ce1741bda69c531b2"),
    (lambda: solve_ab_deficiency(2, 3, 60),
     "f4c21d31e8a6943b49e82b9741bef0e988dda8f75fcc5416aef48a60cd0459a6"),
    (lambda: sum_S2(build_deficiency_zplus(2, 40).vector),
     "7e0e7fc483fec70485b14b52204df88a164ca7781bcc8cb2acc0d8689b22d746"),
    (lambda: sum_S2(_supported_vector(build_half_line(2, 40), 11, 5)),
     "da9441cb36444e44465668cdd6cd2fc12391e0b5c26cf02115aad88ab58f137d"),
    (lambda: _decomposition(60, None),
     "f99adfd1472b21065bd35c2d71027b14444b04493e10a8ce477e1af3d84a0c3c"),
    (lambda: _decomposition(200, 15),
     "2086cbdcb8347c52456407508f0261f6c0536c31e50c3794792133122d626198"),
    (lambda: _transfer(build_deficiency_zplus(2, 40).vector, 200, 1e-10),
     "8c00d59723e49492f4db74cc69efc844bbd5aa9c881dfbd71deae07af7642e0c"),
    (lambda: _transfer(_supported_vector(build_sym_line(2, 10), 19, 10), 3, 1e-15),
     "39eb2376b5ff7da5822d1d40e4cc1157f4f58fc6edb3603333aff973a196bab6"),
]


def _supported_vector(g, seed, depth):
    """Standard normal values on the vertices within `depth` hops of the base."""
    values = np.random.default_rng(seed).standard_normal(g.n_vertices)
    values[g.depths > depth] = 0.0
    return vector(g, values)


def _decomposition(N, seed):
    """The decomposition check on the sym line at M = 2 against its harmonic vector.

    The checked vector is delta at coordinate 1 when seed is None, else
    `_supported_vector(graph, seed, 10)`.
    """
    harm = build_harmonic_zline(2, 1.0, N)
    g = harm.vector.graph
    if seed is None:
        v = np.zeros(g.n_vertices)
        v[g.index_of(1)] = 1.0
        v = EnergyVector(g, v)
    else:
        v = _supported_vector(g, seed, 10)
    return space_decomposition_check(v, [harm.vector])


def _transfer(f, k_max, tol):
    return transfer_iterate(kernel_from_graph(f.graph), f, k_max=k_max, tol=tol)


@pytest.mark.parametrize("build,digest", PINNED_REPORTS)
def test_defect_reports_are_pinned(build, digest):
    assert _digest(build().to_dict()) == digest


def _exact_curves(sol):
    """Every float curve of a DeficiencySolution and its exact views as "a/b" strings."""
    return {"u_float": sol.u_float, "du_float": sol.du_float,
            "energy_cumulative": sol.energy_cumulative,
            "u_exact": [str(v) for v in sol.u_exact],
            "du_exact": [str(v) for v in sol.du_exact]}


AB_VALUES = ("literal_values_pos", "literal_values_neg",
             "repaired_values_pos", "repaired_values_neg")


def _ab_values(rep):
    """An ABDeficiencyReport's to_dict() and its four value tuples as "a/b" strings."""
    return {**rep.to_dict(), **{name: [str(v) for v in getattr(rep, name)] for name in AB_VALUES}}


# sha256 of json.dumps(data, sort_keys=True), recorded from the solutions that
# kept every scaled row; xi = 2/3 and xi = 1/3 both have an odd denominator b
PINNED_EXACT = [
    (lambda: _exact_curves(build_deficiency_zplus(1.5, 120)),
     "7d9c5b93b36d45afbf65f80b2e31367bd8b110580165b91a6b033273d031829b"),
    (lambda: _exact_curves(build_deficiency_zline(3, 80)),
     "1da29bf90da868ae6edb5ee0551b734b28447159ce5dd9f52797ccfcb2a61645"),
    (lambda: _ab_values(solve_ab_deficiency(1.5, 3, 40)),
     "91f01f2ec3ba9796005d5b6b89f197cfdd464ed89ac5df64dda3a9408cd02960"),
]


@pytest.mark.parametrize("build,digest", PINNED_EXACT)
def test_exact_views_and_float_curves_are_pinned(build, digest):
    assert _digest(build()) == digest


def test_classify_keeps_no_scaled_rows():
    # the scaled rows of the half line at M = 2, N = 600 hold about 15 MB of
    # ints; the side kernel keeps two at a time, so the whole call stays far below
    tracemalloc.start()
    try:
        classify_model(HALF_LINE_GEOM, 2, 600)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# the line families classify_model accepts, and their builders and CLI names
CLASSIFIED = {HALF_LINE_GEOM: (build_half_line, "half-line"),
              LINE_GEOM_SYM: (build_sym_line, "sym-line")}

# (family, M, N): sha256 of the report's to_dict() and of its curves; the
# report digests were re-recorded when the defect residual stopped reading
# the graph (see RESIDUAL_MOVES), the curve digests are unchanged
PINNED_CLASSIFY = [
    (HALF_LINE_GEOM, 1.5, 40,
     "6a752da121536d28d9a0632fc1cfe5ce918113ba9a6e4d511668679dfa2834f9",
     "a0b8c42b767a9bc7f3acb875845f6c37bc0185fa1cb5dc37ccb709bacc397f19"),
    (HALF_LINE_GEOM, 1.1, 60,
     "039237afb82f0f7279f4b658a4065da35a533dc7f439ecb5687ee7f6b3bc80cc",
     "49e0696847f0900555917af7715c3b85815b011a64b6665d1ca24f03123a303d"),
    (LINE_GEOM_SYM, 1.5, 40,
     "9eb417c07f5d68f01ea5f1f089005baef9038715d0fbc333e0111008d2c3a1b4",
     "2116787d5e5dfb2edfce94b184b5004c561d9c3c3d75d6f61ce3fadf5f01f14b"),
    (LINE_GEOM_SYM, 1.1, 60,
     "d85e658c23a98e96cc9eb0a3797583a74fad9dadf6b9bb20cdf0184ed01fc656",
     "fc430410babb6fedd343c9a29794221388e65ce2fc72603c8d29b68894fce529"),
]


@pytest.mark.parametrize("family,M,N,report_digest,curves_digest", PINNED_CLASSIFY)
def test_classify_reports_are_pinned(family, M, N, report_digest, curves_digest):
    report = classify_model(family, M, N)
    assert _digest(report.to_dict()) == report_digest
    assert _digest(report.curves) == curves_digest


# (family, M, N): float_residual_rel_max as the graph gave it, and the
# digests it gave the classify report and the defect solution (the three
# in PINNED_REPORTS)
RESIDUAL_MOVES = [
    (HALF_LINE_GEOM, 1.5, 40, 4.8690907152825655e-17,
     "ae3197377ccb0de9b6b42cf7b71a8a468c28c42a26a49c4605cc34d688f22157",
     "d4d7a189f9e4a11b42db4fcbca7020cffa4edabc920185319346fcbe09677d4f"),
    (HALF_LINE_GEOM, 1.1, 60, 3.5055743371521503e-17,
     "6877595bdaf1ea6971bfc5125598f5a7fc2dd066222eace439ce310a89dde6b9",
     "9b0088ec44aee8223a9f42c14b7a36bde9cdb8ded042bfc6c4f76ebedf2bfe77"),
    (LINE_GEOM_SYM, 1.5, 40, 5.963657149776288e-17,
     "162a8f2685801a3ab511cba510b585f991aee48b360a1c0b91231bb52ef9aab5",
     "fc6ff3b18a577eeeebdfa005113e1b55ebf48ddf4658e4a8b6a9c8900f16506a"),
    (LINE_GEOM_SYM, 1.1, 60, 4.5494074733601543e-17,
     "fc795932690c8cc991d1583bab07e04e55ff8748ec73241aa3e92690c4073192", None),
]


@pytest.mark.parametrize("family,M,N,graph_residual,report_digest,solution_digest",
                         RESIDUAL_MOVES)
def test_re_recorded_digests_moved_only_by_the_residual(family, M, N, graph_residual,
                                                        report_digest, solution_digest):
    # putting the graph's residual back restores the earlier digests, so no
    # other field moved, and the residual moved by at most 5e-18
    report = classify_model(family, M, N).to_dict()
    evidence = report["def_evidence"]
    assert abs(evidence["float_residual_rel_max"] - graph_residual) <= 5e-18
    evidence["float_residual_rel_max"] = graph_residual
    assert _digest(report) == report_digest
    if solution_digest is not None:
        assert _digest(evidence) == solution_digest


def reference_defect_residual(sol):
    """The residual as taken on the graph: max_x |(Lap u + u)(x)| / rowscale(x).

    rowscale(x) = c(x) (|u(x)| + max |u|) + |u(x)| + 1e-300, over the
    interior vertices of the line graph, with Lap from apply_laplacian.
    """
    u = sol.vector
    graph, values = u.graph, u.values
    lap = apply_laplacian(u).values
    max_u = float(np.max(np.abs(values)))
    scale = graph.vertex_weights * (np.abs(values) + max_u) + np.abs(values) + 1e-300
    return float(np.max((np.abs(lap + values) / scale)[graph.interior_mask], initial=0.0))


@pytest.mark.parametrize("family", list(CLASSIFIED))
def test_defect_residual_is_the_graphs_to_the_bit_at_powers_of_two(family):
    for M, N_max in ((2, 1000), (4, 500)):    # the graph builds up to N_max
        for N in (2, 3, 40, 300, N_max):
            sol = boundary._deficiency_solution(family, M, N)
            assert sol.float_residual_rel_max == reference_defect_residual(sol), (M, N)


@pytest.mark.parametrize("family", list(CLASSIFIED))
@pytest.mark.parametrize("M", [1.01, 1.1, 1.5, 3])
def test_defect_residual_matches_the_graphs_to_rounding(family, M):
    # rows divided by M**(x+1) round apart from the graph's where M**x is
    # not a power of two; both stay rounding-level
    for N in (2, 7, 30, 60, 100):
        sol = boundary._deficiency_solution(family, M, N)
        new, graph = sol.float_residual_rel_max, reference_defect_residual(sol)
        assert 0 <= new < 1e-16 and 0 <= graph < 1e-16, (N, new, graph)


@pytest.mark.parametrize("M", [1.01, 1.1, 1.5, 2, 3, 4])
def test_sym_line_harmonic_evidence_is_the_graphs_to_the_bit(M):
    # energy and pointwise residual from the line's arrays equal energy()
    # and apply_laplacian on the built graph, and the flux residual is the
    # former formula over every mu(x) = M**x, at every N the graph builds
    for N in [N for N in (2, 30, 200, 500, 1000) if N * math.log2(M) < 1020]:
        res = build_harmonic_zline(M, 1.0, N)
        g = res.vector.graph
        assert res.energy_partial == energy(res.vector), (M, N)
        lap = apply_laplacian(res.vector).values
        assert res.value_array_residual == float(np.max(np.abs(lap[g.interior_mask]))), (M, N)
        xi = 1.0 / M
        flux = np.array([(M ** x) * (1.0 * xi ** x) for x in range(1, N + 1)])
        assert res.interior_residual == float(np.max(np.abs(np.diff(flux)))), (M, N)
        assert np.array_equal(res.vector.values[g.index_of(0):], res.h)


def test_line_evidence_runs_past_the_float_range():
    # M**x overflows past x = 1023 at M = 2: the harmonic constructions and
    # the defect residual run on, under warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zplus = build_harmonic_zplus(2.0, 1100)
        zline = build_harmonic_zline(2.0, 1.0, 1100)
        residual = boundary._defect_residual(np.ones(1101), 2.0, 2)
    assert zplus.forced_first_increment == 0.0 and zplus.propagated_max_abs == 0.0
    assert zline.interior_residual <= 1e-12
    assert zline.energy_partial == build_harmonic_zline(2.0, 1.0, 1000).energy_partial
    # u = 1 leaves only the source terms: the largest ratio is row 0's,
    # xi u(0) / (sides (u(0) + max u) + xi u(0))
    assert residual == 0.5 / (2 * 2 + 0.5)


@pytest.mark.parametrize("family", list(CLASSIFIED))
def test_classify_builds_no_graph(family, monkeypatch):
    # neither the command nor classify_model constructs a WeightedGraph
    built = []
    init = WeightedGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedGraph, "__init__", counting_init)
    config = cli._config_from_args(cli._build_parser().parse_args(
        ["classify", "--model", CLASSIFIED[family][1], "--M", "2", "--N", "30"]))
    code, _text, _files = cli.execute(config)
    assert code == 0
    report = classify_model(family, 2.0, 30)
    assert report.hard_expectations_ok
    assert built == []
    # the records build their graph only when asked for a vector
    boundary._deficiency_solution(family, 2.0, 30).vector
    assert len(built) == 1 and built[0].truncation.family == family


# -- resolvent ----------------------------------------------------------------------

def test_resolvent_path_hand_solve():
    g = path_graph([1.0, 1.0])
    res = resolvent_delta(g, 1)
    # oracle: independent dense solve of the hand-written 3x3 system
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    expected = np.linalg.solve(np.eye(3) + lap, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(res.vector.values, expected, atol=1e-12)
    assert np.allclose(res.vector.values, [0.25, 0.5, 0.25], atol=1e-12)


@pytest.mark.parametrize("graph_factory,x", [
    (lambda: path_graph([1.0, 1.0]), 1),
    (lambda: build_half_line(2, 16), 3),
    (lambda: build_sym_line(2, 10), 12),
    (lambda: build_dyadic_tree(1.0, 5), 4),
    (lambda: build_half_line(1.5, 16), 5),
])
def test_resolvent_contract(graph_factory, x):
    g = graph_factory()
    res = resolvent_delta(g, x)
    assert res.residual_inf <= 1e-10
    assert res.punctured_residual_inf <= 1e-9
    assert res.l2_norm <= 1.0
    assert res.contractive_ok
    assert res.energy_identity_full_rel <= 1e-8


def test_resolvent_dirichlet_suppresses_frontier_tail():
    g = build_half_line(2, 24)
    free = resolvent_delta(g, 3, boundary="free")
    pinned = resolvent_delta(g, 3, boundary="dirichlet")
    # the free truncation carries a near-flat tail; pinning removes it and
    # the interior quadratic sum then matches the energy
    assert abs(free.vector.values[-1]) > 1e-3
    assert abs(pinned.vector.values[-1]) == 0.0
    assert pinned.energy_identity_rel <= 1e-8
    assert pinned.residual_inf <= 1e-10
    assert pinned.l2_norm <= 1.0


def test_resolvent_idempotence_random_vertices():
    rng = np.random.default_rng(13)
    for g in (build_half_line(2, 16), build_sym_line(2, 10),
              build_dyadic_tree(1.0, 5)):
        xs = rng.choice(g.n_vertices, 5, replace=False)
        for x in xs:
            res = resolvent_delta(g, int(x))
            out = res.vector.values + apply_laplacian(res.vector).values
            target = np.zeros(g.n_vertices)
            target[x] = 1.0
            assert np.max(np.abs(out - target)) <= 1e-9


def test_resolvent_rejects_pinned_source():
    g = build_half_line(2, 10)
    with pytest.raises(ValueError):
        resolvent_delta(g, 10, boundary="dirichlet")


# -- energy decomposition --------------------------------------------------------

def test_space_decomposition_zero_vector():
    g = build_sym_line(2, 20)
    res = space_decomposition_check(vector(g, np.zeros(g.n_vertices)), [])
    assert res.energy_u == 0.0
    assert res.s2_interior == 0.0
    assert res.energy_harm_projection == 0.0
    assert res.passed


def test_space_decomposition_no_harmonic_basis():
    # on the half line the harmonic space is trivial and the identity
    # reduces to energy(u) = S2(u)
    g = build_half_line(2, 30)
    rng = np.random.default_rng(14)
    for _ in range(5):
        v = random_interior_vector(g, rng, margin=2)
        res = space_decomposition_check(v, [])
        assert res.passed, res.to_dict()


def test_space_decomposition_sym_line_with_basis():
    harm = build_harmonic_zline(2, 1.0, 200)
    g = harm.vector.graph
    rng = np.random.default_rng(15)
    for _ in range(20):
        values = rng.standard_normal(g.n_vertices)
        values[np.abs(np.arange(g.n_vertices) - g.base_vertex) > 10] = 0.0
        v = EnergyVector(g, values)
        res = space_decomposition_check(v, [harm.vector])
        assert res.residual_rel <= 1e-6, res.to_dict()
        assert res.passed


def test_space_decomposition_delta_example():
    harm = build_harmonic_zline(2, 1.0, 60)
    g = harm.vector.graph
    d1 = np.zeros(g.n_vertices)
    d1[g.index_of(1)] = 1.0
    res = space_decomposition_check(EnergyVector(g, d1), [harm.vector])
    assert res.passed
    assert res.energy_harm_projection <= 1e-12 * res.energy_u


# -- classification ----------------------------------------------------------------

@pytest.mark.parametrize("m_ratio", [1.5, 2.0, 4.0])
def test_classify_half_line(m_ratio):
    report = classify_model(HALF_LINE_GEOM, m_ratio, 100)
    assert report.harm_dim == 0
    assert report.def_dim == 1
    assert report.hard_expectations_ok
    assert report.def_evidence["interior_residual_exact_zero"]


def test_classify_half_line_uncertified_window_is_inconclusive():
    # at M = 1.1 the energy terms still grow at N = 60 (they peak near
    # n = 75), so the window flags cannot certify the defect vector; the
    # paper gives it for every M > 1, so the verdict is open, never 0
    report = classify_model(HALF_LINE_GEOM, 1.1, 60)
    assert report.def_evidence["interior_residual_exact_zero"]
    assert report.def_evidence["energy_flag"] != "CONVERGENT"
    assert report.def_dim is None
    assert not report.def_hard
    assert not report.hard_expectations_ok
    assert report.to_dict()["def_dim"] is None


def test_deficiency_float_curves_round_the_exact_values():
    for sol in (build_deficiency_zplus(1.5, 40), build_deficiency_zline(1.5, 40),
                build_deficiency_zplus(2, 300), build_deficiency_zline(1.1, 60)):
        assert sol.u_float == tuple(float(v) for v in sol.u_exact)
        assert sol.du_float == tuple(float(v) for v in sol.du_exact)
        assert sol.to_dict()["u_head"] == list(sol.u_float[:8])


def test_classify_sym_line():
    report = classify_model(LINE_GEOM_SYM, 2.0, 100)
    assert report.harm_dim == 1
    assert report.hard_expectations_ok
    # the defect verdict stays evidence-only for this model
    assert not report.def_hard
    assert report.def_evidence["classification"] in (
        "FINITE", "INFINITE", "INCONCLUSIVE")


def test_classify_sym_line_fails_with_its_harmonic_check(monkeypatch):
    # a harmonic vector whose flux residual is off fails the sym-line expectations
    monkeypatch.setattr(boundary, "build_harmonic_zline", lambda M, t, N: dataclasses.replace(
        build_harmonic_zline(M, t, N), interior_residual=1e-6))
    report = classify_model(LINE_GEOM_SYM, 2.0, 30)
    assert report.harm_dim == 0
    assert not report.hard_expectations_ok
    assert report.to_dict()["hard_expectations_ok"] is False


def test_classify_rejects_other_families():
    with pytest.raises(ValueError, match="not 'DYADIC_TREE'"):
        classify_model(DYADIC_TREE, 1.0, 4)
    with pytest.raises(ValueError, match="not 'LINE_AB'"):
        classify_model(LINE_AB, 2.0, 10)
    with pytest.raises(ValueError, match="not 'half-line'"):
        classify_model("half-line", 2.0, 10)


@pytest.mark.parametrize("M,N,message", [
    (1.0, 10, "M must be finite and > 1 \\(got 1.0\\)"),
    (float("inf"), 10, "M must be finite and > 1 \\(got inf\\)"),
    (float("nan"), 10, "M must be finite and > 1 \\(got nan\\)"),
    (2.0, 1, "truncation depth N must be >= 2 \\(got 1\\)"),
])
@pytest.mark.parametrize("family", list(CLASSIFIED))
def test_classify_checks_M_and_N_as_the_builders_do(family, M, N, message):
    with pytest.raises(ValueError, match=message):
        classify_model(family, M, N)
    with pytest.raises(ValueError, match=message):
        CLASSIFIED[family][0](M, N)


def test_classify_reports_an_int_M_as_a_float():
    report = classify_model(HALF_LINE_GEOM, 2, 30)
    assert (report.family, report.N) == ("HALF_LINE_GEOM", 30)
    assert type(report.M) is float and report.M == 2.0
    assert report.to_dict() == classify_model(HALF_LINE_GEOM, 2.0, 30).to_dict()


def test_tail_flag_windows():
    n = 40
    depths = [10, 20, 30, 40]
    geometric = np.cumsum([0.5 ** k for k in range(n + 1)])
    flag, _ = tail_flag(geometric, depths)
    assert flag == "CONVERGENT"
    linear = np.arange(n + 1, dtype=float)
    flag, _ = tail_flag(linear, depths)
    assert flag == "DIVERGENT"
    flat = np.zeros(n + 1)
    flag, _ = tail_flag(flat, depths)
    assert flag == "CONVERGENT"
