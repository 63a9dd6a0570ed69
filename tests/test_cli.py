import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from resistnet import boundary, cli, embedding, graphs, linsolve, polynomials
from resistnet.energy import vector, write_vector
from resistnet.graphs import build_dyadic_tree, path_graph, write_graph


def _resolved(argv):
    return cli._config_from_args(cli._build_parser().parse_args(argv))


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_polys_reproduces_first_rows(capsys):
    code, out = run_cli(capsys, ["polys", "--n-max", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "polys"
    assert doc["table_rows"] == 3


def test_polys_table_csv_content(tmp_path, capsys):
    code, _ = run_cli(capsys, ["polys", "--n-max", "3", "--xi", "1/2",
                               "--out-dir", str(tmp_path)])
    assert code == 0
    table = (tmp_path / "polys_table.csv").read_text().splitlines()
    assert table[0] == "n,p_coeffs,q_coeffs"
    assert table[1] == "1,1,1;1"
    assert table[2] == "2,2;1,1;1;2;1"
    assert table[3] == "3,3;2;2;1,1;1;2;4;2;2;1"
    evals = (tmp_path / "polys_eval.csv").read_text().splitlines()
    assert evals[1] == "0,1/2,0/1,1/1"
    assert evals[3] == "2,1/2,5/2,17/8"
    assert evals[4] == "3,1/2,37/8,173/64"


def test_polys_identities_pass(capsys):
    code, out = run_cli(capsys, ["polys", "--n-max", "12", "--check-identities"])
    assert code == 0
    doc = json.loads(out)
    assert all(doc["identities"].values())


def test_polys_q_limit_run(capsys):
    code, out = run_cli(capsys, ["polys", "--n-max", "10", "--xi", "1/2",
                                 "--q-limit", "--growth"])
    assert code == 0
    doc = json.loads(out)
    assert doc["q_limit"]["monotone_ok"]
    assert doc["growth"]["lower_linear_ok"]


def test_polys_builds_the_pair_list_once(capsys, monkeypatch):
    # the table builds the pair list once; the growth report checks its
    # cumulative identity on the packed pair and does not read the table
    calls = []
    real = polynomials.pair_sequence

    def counted(n_max):
        calls.append(n_max)
        return real(n_max)

    monkeypatch.setattr(polynomials, "pair_sequence", counted)
    code, out = run_cli(capsys, ["polys", "--n-max", "40", "--xi", "1/2", "--growth"])
    assert code == 0
    assert json.loads(out)["growth"]["cumulative_identity_ok"]
    assert calls == [40]


def test_polys_writes_values_past_the_int_digit_limit():
    # at xi = 999/1000 and n = 100 the largest denominator has 15,151 digits,
    # past the interpreter's default limit of 4,300 for int-to-str; the CSV
    # writer lifts it for itself alone
    limit = sys.get_int_max_str_digits()
    code, _text, files = cli.execute(_resolved(["polys", "--xi", "999/1000", "--n-max", "100"]))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        rows = [line.split(",") for line in files["polys_eval.csv"].splitlines()[1:]]
        values = [(Fraction(p), Fraction(q)) for _n, _xi, p, q in rows]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [row[1] for row in rows] == ["999/1000"] * 101
    assert values == polynomials.pair_values_sequence(Fraction(999, 1000), 100)


@pytest.mark.parametrize("xi", ["1/" + "7" * 5000, "0." + "7" * 5000])
def test_polys_reads_an_xi_past_the_int_digit_limit(xi, capsys):
    # 5,000 digits pass the interpreter's int-from-str limit of 4,300; the
    # value, 16,610 bits, is within POLYS_XI_BITS_MAX at --n-max 0
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, ["polys", "--xi", xi, "--n-max", "0"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    assert strict_json(out)["table_rows"] == 0


def test_polys_refuses_an_xi_of_too_many_digits_from_its_text(capsys):
    # 20,000 digits are more than 2^POLYS_XI_BITS_MAX has (19,729): refused
    # from the text, and the argument is not echoed
    code = cli.main(["polys", "--xi", "1/" + "7" * 20_000])
    err = capsys.readouterr().err
    assert code == 64
    assert err == ("resistnet: error: --xi has a run of 20000 digits, past the 19729 "
                   "of 2^65536\n")
    assert cli.POLYS_XI_DIGITS_MAX == 19729 and 10 ** 19728 < 2 ** 65536 < 10 ** 19729


def test_polys_refuses_an_xi_past_the_size_budget_before_the_recursion(capsys):
    # at 1e400 and n_max = 100 the recursion alone takes seconds, and its
    # integers reach millions of bits; 1e5000 would take far longer
    start = time.perf_counter()
    assert cli.main(["polys", "--xi", "1e5000", "--n-max", "100"]) == 64
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("resistnet: error: --xi of 16610 bits")


def test_classify_half_line(capsys):
    code, out = run_cli(capsys, ["classify", "--model", "half-line",
                                 "--M", "2", "--N", "60"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["harm_dim"] == 0
    assert doc["report"]["def_dim"] == 1


def test_classify_sym_line(capsys):
    code, out = run_cli(capsys, ["classify", "--model", "sym-line",
                                 "--M", "2", "--N", "60"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["harm_dim"] == 1


def test_classify_usage_error_exit_64(capsys):
    code = cli.main(["classify", "--model", "half-line", "--M", "1.0"])
    assert capsys.readouterr().err == ("resistnet: error: M must be finite and > 1 (got 1.0); "
                                       "the geometric models assume it\n")
    assert code == 64


def strict_json(text):
    """json.loads(text), refusing NaN and Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("model", ["half-line", "sym-line"])
def test_classify_runs_past_the_float_range(model):
    # M**N overflows past N = 1023 at M = 2; classify builds no graph, so
    # it certifies the exact rows at N = 3000, and the first 301 rows of
    # its curves are those of N = 300
    code, text, files = cli.execute(_resolved(["classify", "--model", model, "--M", "2",
                                               "--N", "3000"]))
    assert code == 0
    evidence = strict_json(text)["report"]["def_evidence"]
    for key in ("interior_residual_exact_zero", "flux_recursion_ok", "seed_relation_ok"):
        assert evidence[key] is True, key
    _code, _text, short = cli.execute(_resolved(["classify", "--model", model, "--M", "2",
                                                 "--N", "300"]))
    short_rows = short["boundary_curves.csv"].splitlines()
    assert len(short_rows) == 302
    assert files["boundary_curves.csv"].splitlines()[:302] == short_rows


def test_unknown_option_exit_64():
    with pytest.raises(SystemExit) as err:
        cli.main(["classify", "--nonsense"])
    assert err.value.code == 64


def test_walk_band_and_determinism(capsys, tmp_path):
    argv = ["walk", "--model", "half-line", "--M", "2", "--N", "30",
            "--start", "5", "--steps", "1", "--trials", "100000",
            "--seed", "7", "--out-dir", str(tmp_path)]
    code, out1 = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out1)
    assert doc["frequency"]["all_within_band"]
    csv1 = (tmp_path / "walk_frequencies.csv").read_text()
    code, out2 = run_cli(capsys, argv)
    assert out1 == out2
    # replay from the emitted config echo is bit-identical
    echo = tmp_path / "echo.json"
    echo.write_text(out1)
    code, out3 = run_cli(capsys, ["replay", str(echo), "--out-dir",
                                  str(tmp_path / "replayed")])
    assert code == 0
    assert out3 == out1
    csv2 = (tmp_path / "replayed" / "walk_frequencies.csv").read_text()
    assert csv2 == csv1


def test_walk_with_no_checked_row_writes_the_header_alone(capsys, tmp_path):
    # no vertex reaches --min-exits, so the frequency check has no rows
    code, out = run_cli(capsys, ["walk", "--model", "tree", "--N", "4", "--start", "0",
                                 "--steps", "3", "--trials", "100", "--seed", "1",
                                 "--min-exits", "1000000", "--out-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["frequency"]["rows"] == []
    assert (tmp_path / "walk_frequencies.csv").read_bytes() == \
        b"x,y,exact_p,empirical_p,n_exits,z_score\n"


def test_walk_ab_line(capsys):
    code, out = run_cli(capsys, ["walk", "--model", "ab-line", "--A", "2",
                                 "--B", "3", "--N", "10", "--start", "0",
                                 "--steps", "1", "--trials", "50000",
                                 "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    rows = {(r[0], r[1]): r for r in doc["frequency"]["rows"]}
    g_mid = 10  # coordinate 0 sits at index N in the two-sided layout
    assert abs(rows[(g_mid, g_mid + 1)][2] - 0.4) < 1e-12


def test_walk_tree_model(capsys):
    code, out = run_cli(capsys, ["walk", "--model", "tree", "--c-const", "1",
                                 "--N", "4", "--start", "0", "--steps", "2",
                                 "--trials", "30000", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["frequency"]["all_within_band"]


def test_walk_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("RESISTNET_SEED", "99")
    code, out = run_cli(capsys, ["walk", "--model", "half-line", "--M", "2",
                                 "--N", "10", "--start", "2", "--steps", "1",
                                 "--trials", "1000"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_embed_pass_and_wrong_psi(capsys):
    code, out = run_cli(capsys, ["embed", "--N", "6", "--trials", "30",
                                 "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["passed"]
    assert doc["monopole_transport"]["passed"]
    assert doc["tree_harmonic"]["root_value"] == 0.0

    code, out = run_cli(capsys, ["embed", "--N", "6", "--trials", "10",
                                 "--seed", "1", "--wrong-psi"])
    assert code == 2
    assert not json.loads(out)["certificate"]["passed"]


def test_embed_shallow_warns_but_runs(capsys):
    code, out = run_cli(capsys, ["embed", "--N", "2", "--trials", "5",
                                 "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"]


def test_energy_command(tmp_path, capsys):
    g = path_graph([1.0, 1.0])
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(write_graph(g))
    vec_file = tmp_path / "v.csv"
    vec_file.write_text(write_vector(vector(g, [0.0, 1.0, 0.0])))
    code, out = run_cli(capsys, ["energy", "--graph", str(graph_file),
                                 "--vector", str(vec_file),
                                 "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["energy"] == 2.0
    lap_lines = (tmp_path / "laplacian.csv").read_text().splitlines()
    assert lap_lines[1] == "0,-1.0"
    assert lap_lines[2] == "1,2.0"


def test_resolvent_command(capsys):
    code, out = run_cli(capsys, ["resolvent", "--model", "half-line",
                                 "--M", "2", "--N", "16", "--x", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["resolvent"]["residual_inf"] <= 1e-10
    assert doc["resolvent"]["l2_norm"] <= 1.0


def test_resolvent_past_former_size_cliff(capsys):
    code, out = run_cli(capsys, ["resolvent", "--model", "sym-line",
                                 "--M", "2", "--N", "64", "--x", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["resolvent"]["diagnostics"]["method"] == "tree"
    assert doc["resolvent"]["diagnostics"]["residual"] <= 1e-15
    assert doc["exit_code"] == code


# solves with a backward residual far below tol whose absolute residual, the
# size of a row at conductances up to 2^600 or 5e307, the CLI once also gated
FORMER_REFUSALS = [
    ["--model", "half-line", "--M", "2", "--N", "40", "--x", "1"],
    ["--model", "half-line", "--M", "2", "--N", "600", "--x", "300"],
    ["--model", "sym-line", "--M", "2", "--N", "64", "--x", "6"],
    ["--model", "tree", "--N", "3", "--x", "1", "--c-const", "1e300"],
    ["--model", "tree", "--N", "3", "--x", "1", "--c-const", "5e307"],
]


@pytest.mark.parametrize("args", FORMER_REFUSALS)
def test_resolvent_contract_is_the_backward_residual(args):
    config = _resolved(["resolvent", *args])
    code, text, files = cli.execute(config)
    doc = strict_json(text)
    assert code == doc["exit_code"] == 0
    assert doc["contract_ok"] is True
    assert doc["resolvent"]["diagnostics"]["residual"] <= config["tol"]
    assert doc["resolvent"]["contractive_ok"] is True
    assert "resolvent_u.csv" in files


@pytest.mark.parametrize("args", FORMER_REFUSALS)
def test_resolvent_refuses_a_solution_perturbed_past_tol(args, monkeypatch):
    # each entry moved by a relative 1e-6 of alternating sign: the backward
    # residual rises far past tol, so the solve itself refuses the vector
    eliminate = linsolve._eliminate_forest

    def perturbed(*forest):
        u = eliminate(*forest)
        return u * (1 + 1e-6 * (-1.0) ** np.arange(len(u)))

    monkeypatch.setattr(linsolve, "_eliminate_forest", perturbed)
    code, text, files = cli.execute(_resolved(["resolvent", *args]))
    doc = strict_json(text)
    assert code == doc["exit_code"] == 2
    assert doc["contract_ok"] is False
    assert doc["error"]["class"] == "SolverError"
    assert "backward residual" in doc["error"]["message"]
    assert files == {}


def test_resolvent_scale_past_the_float_range_is_refused(monkeypatch):
    # read_graph refuses a vertex weight past the float range, so only a graph
    # built in code reaches the solve: its infinite scale gives a NaN backward
    # residual, which fails the gate instead of reading as an exact solve
    monkeypatch.setattr(cli, "_read_file", lambda path, parse: path_graph([1e308, 1e308]))
    code, text, _files = cli.execute(_resolved(["resolvent", "--graph", "g.txt", "--x", "0"]))
    doc = strict_json(text)
    assert code == 2 and doc["contract_ok"] is False
    assert doc["error"]["class"] == "SolverError"
    assert "backward residual nan" in doc["error"]["message"]


def test_embed_builds_one_tree(monkeypatch, capsys):
    # the certificate, the monopole transport and the tree harmonic share dyadic_pair's tree
    built = []
    build = graphs.build_dyadic_tree

    def counting(c_const, N):
        built.append(N)
        return build(c_const, N)

    monkeypatch.setattr(graphs, "build_dyadic_tree", counting)
    monkeypatch.setattr(embedding, "build_dyadic_tree", counting)
    code, out = run_cli(capsys, ["embed", "--N", "5", "--seed", "0"])
    assert code == 0 and "tree_harmonic" in json.loads(out)
    assert built == [5]


def test_resolvent_solver_failure_is_structured(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    # a residual gate of 1e-300 that the solve's rounding (about 2e-18) misses; a
    # negative conductance, which used to reach a failing pivot, is now refused first
    graph_file.write_text(write_graph(path_graph([0.1, 0.7, 3.3])))
    code, out = run_cli(capsys, ["resolvent", "--graph", str(graph_file), "--x", "1",
                                 "--tol", "1e-300"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["class"] == "SolverError"
    assert doc["error"]["message"]
    assert doc["contract_ok"] is False


def test_replay_rejects_non_config(tmp_path, capsys):
    bogus = tmp_path / "b.json"
    bogus.write_text(json.dumps({"not_a": "config"}))
    code = cli.main(["replay", str(bogus)])
    capsys.readouterr()
    assert code == 64


def test_replay_names_the_missing_key(tmp_path, capsys):
    partial = tmp_path / "walk.json"
    partial.write_text(json.dumps({"command": "walk"}))
    assert cli.main(["replay", str(partial)]) == 64
    assert capsys.readouterr().err == "resistnet: error: replay: config lacks the key 'model'\n"


def test_exit_codes_stable_contract(capsys):
    # 0 on success, 2 on claim failure, 64 on usage error
    assert run_cli(capsys, ["polys", "--n-max", "4"])[0] == 0
    assert run_cli(capsys, ["embed", "--N", "4", "--trials", "5", "--seed", "0",
                            "--wrong-psi"])[0] == 2
    assert cli.main(["classify", "--model", "half-line", "--M", "0.5"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["polys", "--xi", "1/0"],
    ["polys", "--xi", "abc"],
    ["polys", "--xi", "0", "--q-limit"],
    ["polys", "--xi", "3/2", "--q-limit"],
    ["polys", "--n-max", "5", "--xi", "1/2", "--growth"],
    # an xi whose values could pass POLYS_XI_BITS_MAX, or whose decimal
    # exponent Fraction would expand before anything could measure it
    *(["polys", "--xi", xi, "--n-max", "100"]
      for xi in ("1e400", "1/" + "7" * 4000, "1e99999999999")),
    ["polys", "--xi", "1e400"],
    ["classify", "--model", "half-line", "--M", "inf", "--N", "10"],
    # {dir} is a scratch directory holding the files written below
    ["energy", "--graph", "{dir}/missing.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/missing.csv"],
    ["energy", "--graph", "{dir}/bad_header.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/bad_edge.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/edge_count.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/two_headers.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/label_far.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/label_neg.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/bad_row.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/bad_value.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/vertex_7.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/vertex_neg.csv"],
    ["resolvent", "--graph", "{dir}/missing.txt", "--x", "0"],
    ["resolvent", "--graph", "{dir}/bad_edge.txt", "--x", "0"],
    ["replay", "{dir}/missing.json"],
    ["replay", "{dir}/bad.json"],
    ["walk", "--model", "half-line", "--M", "2", "--N", "10", "--start", "2",
     "--trials", "0"],
    ["walk", "--model", "half-line", "--M", "2", "--N", "10", "--start", "2",
     "--steps", "0"],
    ["embed", "--N", "0"],
    ["polys", "--xi", "1/2", "--q-limit", "--q-limit-tol", "0"],
    ["embed", "--N", "4", "--trials", "0"],
    ["embed", "--N", "4", "--trials", "-1"],
    ["replay", "{dir}/incomplete.json"],
    # replayed values of the wrong type: n_max "5", N "x"
    ["replay", "{dir}/polys_n_max_str.json"],
    ["replay", "{dir}/walk_N_x.json"],
    ["polys", "--check-identities", "--order", "0"],
    ["polys", "--check-identities", "--order", "-3"],
    ["polys", "--n-max", "-1"],
    # a depth past classify's limit
    ["classify", "--model", "half-line", "--M", "2", "--N", str(cli.CLASSIFY_N_MAX + 1)],
    ["classify", "--model", "half-line", "--M", "2", "--N", "1"],
    ["walk", "--model", "half-line", "--M", "2", "--N", "3000", "--start", "2",
     "--trials", "10"],
    # non-finite numbers: JSON has no NaN or Infinity
    ["energy", "--graph", "{dir}/nan_edge.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/inf_edge.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/nan_value.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/inf_value.csv"],
    # the coefficient table grows like n_max**4
    ["polys", "--n-max", "101"],
    # the identity checks grow steeply with the order
    ["polys", "--check-identities", "--order", "101"],
    # a tree conductance that is not finite, or whose vertex weight 3 c overflows
    ["walk", "--model", "tree", "--N", "3", "--start", "0", "--trials", "10",
     "--c-const", "inf"],
    ["walk", "--model", "tree", "--N", "3", "--start", "0", "--trials", "10",
     "--c-const", "1e308"],
    ["resolvent", "--model", "tree", "--N", "3", "--x", "1", "--c-const", "7e307"],
    ["resolvent", "--model", "tree", "--N", "3", "--x", "1", "--c-const", "nan"],
    # a residual gate outside (0, 1) checks nothing, or fails every solve: a
    # backward residual never exceeds 1
    *(["resolvent", "--model", "half-line", "--M", "2", "--N", "10", "--x", "3", "--tol", tol]
      for tol in ("nan", "-1", "inf", "0", "1", "1e308")),
    # so does a z-score band that is not finite and > 0; no count of exits is negative
    *(["walk", "--model", "half-line", "--M", "2", "--N", "10", "--start", "2", "--trials", "10",
       *option] for option in (("--sigma-band", "nan"), ("--sigma-band", "-1"),
                               ("--sigma-band", "inf"), ("--sigma-band", "0"),
                               ("--min-exits", "-1"))),
    # so does a q-limit tolerance: an infinite one stops q_limit at its first term
    *(["polys", "--xi", "1/2", "--q-limit", f"--q-limit-tol={tol}"]
      for tol in ("nan", "-1", "inf")),
    # a negative conductance makes the energy form indefinite; read_graph refuses it
    ["energy", "--graph", "{dir}/negative.txt", "--vector", "{dir}/v3.csv"],
    ["resolvent", "--graph", "{dir}/negative.txt", "--x", "0"],
    # finite conductances whose energy, or Laplacian, leaves the float range
    ["energy", "--graph", "{dir}/huge4.txt", "--vector", "{dir}/huge4.csv"],
    ["energy", "--graph", "{dir}/huge2.txt", "--vector", "{dir}/huge2.csv"],
    # model graphs past the 48-bit address space: 16 PiB and 7 PiB arrays,
    # refused at allocation, so no memory is touched
    ["walk", "--model", "tree", "--N", "50", "--start", "0"],
    ["resolvent", "--model", "half-line", "--M", "2", "--N", "1000000000000000", "--x", "0"],
])
@pytest.mark.filterwarnings("error")
def test_bad_input_is_a_usage_error(argv, capsys, tmp_path):
    (tmp_path / "g.txt").write_text(write_graph(path_graph([1.0])))
    (tmp_path / "v.csv").write_text("vertex,value\n0,1.0\n1,0.0\n")
    (tmp_path / "bad_header.txt").write_text("graph 2\nedge 0 1 1.0\n")
    (tmp_path / "bad_edge.txt").write_text("graph 2 1 0\nedge 0 one 1.0\n")
    (tmp_path / "edge_count.txt").write_text("graph 3 7 0\nedge 0 1 1.0\nedge 1 2 1.0\n")
    (tmp_path / "two_headers.txt").write_text("graph 2 1 0\nedge 0 1 1.0\ngraph 3 1 0\n")
    (tmp_path / "label_far.txt").write_text("graph 2 1 0\nedge 0 1 1.0\nlabel 9 far\n")
    (tmp_path / "label_neg.txt").write_text("graph 2 1 0\nedge 0 1 1.0\nlabel -1 neg\n")
    (tmp_path / "bad_row.csv").write_text("vertex,value\n0;1.0\n")
    (tmp_path / "bad_value.csv").write_text("vertex,value\n0,one\n")
    (tmp_path / "vertex_7.csv").write_text("vertex,value\n7,1.0\n")
    (tmp_path / "vertex_neg.csv").write_text("vertex,value\n-1,1.0\n")
    (tmp_path / "nan_edge.txt").write_text("graph 2 1 0\nedge 0 1 nan\n")
    (tmp_path / "inf_edge.txt").write_text("graph 2 1 0\nedge 0 1 -inf\n")
    (tmp_path / "nan_value.csv").write_text("vertex,value\n0,nan\n")
    (tmp_path / "inf_value.csv").write_text("vertex,value\n0,1.0\n1,inf\n")
    (tmp_path / "negative.txt").write_text("graph 3 2 0\nedge 0 1 -1.0\nedge 1 2 1.0\n")
    (tmp_path / "v3.csv").write_text("vertex,value\n0,0\n1,1\n2,1\n")
    (tmp_path / "huge4.txt").write_text("graph 4 2 0\nedge 0 1 1e308\nedge 2 3 1e308\n")
    (tmp_path / "huge4.csv").write_text("vertex,value\n0,1\n1,0\n2,1\n3,0\n")
    (tmp_path / "huge2.txt").write_text("graph 2 1 0\nedge 0 1 1e308\n")
    (tmp_path / "huge2.csv").write_text("vertex,value\n0,3\n1,-3\n")
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "incomplete.json").write_text(json.dumps({"command": "walk"}))
    polys = _resolved(["polys"])
    walk = _resolved(["walk", "--model", "tree", "--start", "0", "--seed", "0"])
    (tmp_path / "polys_n_max_str.json").write_text(json.dumps(dict(polys, n_max="5")))
    (tmp_path / "walk_N_x.json").write_text(json.dumps(dict(walk, N="x")))
    code = cli.main([arg.format(dir=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("resistnet: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["energy", "--vector", "{dir}/v.csv"],
                                     ["resolvent", "--x", "0"]])
def test_negative_conductance_names_the_first_such_edge(command, capsys, tmp_path):
    # read_graph refuses the file at its first negative conductance; the
    # zero conductances (-0.0 too) before it pass
    (tmp_path / "g.txt").write_text("graph 4 4 0\nedge 0 1 0\nedge 1 2 -0.0\n"
                                    "edge 2 3 -2.5\nedge 0 3 -1\n")
    (tmp_path / "v.csv").write_text("vertex,value\n0,1.0\n")
    code = cli.main([arg.format(dir=tmp_path) for arg in command]
                    + ["--graph", str(tmp_path / "g.txt")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (64, "")
    assert captured.err == (f"resistnet: error: {tmp_path / 'g.txt'}: line 4: edge (2, 3) has "
                            "conductance -2.5 < 0\n")


@pytest.mark.parametrize("command", [["energy", "--vector", "{dir}/v.csv"],
                                     ["resolvent", "--x", "0"]])
def test_vertex_weight_overflow_names_its_edge(command, capsys, tmp_path):
    # c(1) = 1e308 + 1e308 is not a finite float: the energy read Infinity
    # and the solve a backward residual of 0.0 before read_graph refused it
    (tmp_path / "g.txt").write_text("graph 3 2 0\nedge 0 1 1e308\nedge 1 2 1e308\n")
    (tmp_path / "v.csv").write_text("vertex,value\n0,1\n1,0\n2,1\n")
    code = cli.main([arg.format(dir=tmp_path) for arg in command]
                    + ["--graph", str(tmp_path / "g.txt")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (64, "")
    assert captured.err == (f"resistnet: error: {tmp_path / 'g.txt'}: line 3: edge (1, 2) "
                            "overflows the weight of vertex 1: a vertex weight must stay "
                            "below 1.798e+308\n")


@pytest.mark.parametrize("command", [["energy", "--vector", "{dir}/v.csv"],
                                     ["resolvent", "--x", "0"]])
def test_zero_conductances_are_taken_like_missing_edges(command, capsys, tmp_path):
    (tmp_path / "g.txt").write_text("graph 3 2 0\nedge 0 1 1.0\nedge 1 2 -0.0\n")
    (tmp_path / "v.csv").write_text("vertex,value\n0,1.0\n2,5.0\n")
    code = cli.main([arg.format(dir=tmp_path) for arg in command]
                    + ["--graph", str(tmp_path / "g.txt")])
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("labels,named", [("label 0 x\n", "huge.txt"), ("", "huge.txt")])
def test_huge_header_vertex_count_is_a_usage_error(labels, named, capsys, tmp_path):
    # 10**15 vertices: the label list or the vertex weights cannot be
    # allocated, so the graph file is named, not the vector file read after it
    (tmp_path / "huge.txt").write_text("graph 1000000000000000 0 0\n" + labels)
    (tmp_path / "v.csv").write_text("vertex,value\n0,1.0\n")
    code = cli.main(["energy", "--graph", str(tmp_path / "huge.txt"),
                     "--vector", str(tmp_path / "v.csv")])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith(f"resistnet: error: {tmp_path / named}: out of memory")
    assert captured.err.count("\n") == 1


def test_embed_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # the tree pair of embed --N 40 asks for 16 TiB; a MemoryError from its
    # build is raised here instead of allocating anything
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(embedding, "dyadic_pair", no_memory)
    code = cli.main(["embed", "--N", "40"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (64, "")
    assert captured.err == "resistnet: error: --N 40: out of memory (Unable to allocate 16.0 TiB)\n"


def test_q_limit_non_convergence_is_structured(capsys, monkeypatch):
    def no_convergence(xi, tol):
        raise boundary.QLimitError("no convergence", 5000, 1.5, 1e-3)

    monkeypatch.setattr(boundary, "q_limit", no_convergence)
    code, out = run_cli(capsys, ["polys", "--xi", "1/2", "--q-limit"])
    assert code == 2
    doc = json.loads(out)
    assert doc["q_limit"] == {"error": {
        "class": "QLimitError", "message": "no convergence", "n_reached": 5000}}
    assert doc["exit_code"] == 2


def test_q_limit_past_the_float_range_is_structured(capsys, monkeypatch):
    # the terms xi^n p_n^2 of q_n(1023/1024) pass the largest float at n = 405;
    # the row budget, lifted here, would refuse the run before the pass
    monkeypatch.setattr(boundary, "Q_LIMIT_BITS_MAX", 1 << 40)
    code, out = run_cli(capsys, ["polys", "--xi", "1023/1024", "--q-limit"])
    assert code == 2
    error = json.loads(out)["q_limit"]["error"]
    assert error["class"] == "QLimitError"
    assert error["n_reached"] == 405
    assert "float range" in error["message"]


@pytest.mark.parametrize("xi,depth", [("99/100", 3207), ("999/1000", 36822),
                                      ("1023/1024", 37755)])
def test_q_limit_past_the_row_budget_is_refused_before_the_pass(xi, depth, capsys):
    # at 99/100 the enclosure narrows to 1e-10 no earlier than n = 3207, where
    # a row has about 34 million bits; the run ran past 600 s before the budget
    start = time.perf_counter()
    code, out = run_cli(capsys, ["polys", "--xi", xi, "--q-limit"])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    error = strict_json(out)["q_limit"]["error"]
    assert (error["class"], error["n_reached"]) == ("QLimitError", 0)
    assert f"needs n >= {depth}," in error["message"]


def test_q_limit_nine_tenths_is_certified(capsys):
    # the enclosure [value, upper_bound] is at most --q-limit-tol wide and
    # reaches the limit, which the 1e-12 enclosure puts in
    # [11929938.151132153, 11929938.151142962]; the heuristic stop gave
    # 11929938.140400724, below both ends
    code, out = run_cli(capsys, ["polys", "--xi", "9/10", "--q-limit"])
    assert code == 0
    q = strict_json(out)["q_limit"]
    assert q["upper_bound"] - q["value"] <= 1e-10 * q["value"]
    assert q["value"] <= 11929938.151132153 and q["upper_bound"] >= 11929938.151142962
    code, out = run_cli(capsys, ["polys", "--xi", "9/10", "--q-limit", "--q-limit-tol", "1e-12"])
    q = strict_json(out)["q_limit"]
    assert (q["value"], q["upper_bound"]) == (11929938.151132153, 11929938.151142962)


def test_classify_half_line_uncertified_window_exits_2(capsys):
    code, out = run_cli(capsys, ["classify", "--model", "half-line",
                                 "--M", "1.1", "--N", "49"])
    assert code == 2
    report = strict_json(out)["report"]
    assert report["def_dim"] is None
    assert report["def_hard"] is False
    evidence = report["def_evidence"]
    assert (evidence["energy_verdict"], evidence["certified_depth"]) == ("NEEDS_DEPTH", 50)
    assert evidence["energy_enclosure"][1] is None


@pytest.mark.parametrize("M,N", [("1.1", "60"), ("2", "2")])
def test_classify_certifies_from_the_certified_depth(M, N, capsys):
    # M = 1.1 closes at n = 50 and M = 2 at n = 2, where fewer than four
    # dyadic window depths exist
    code, out = run_cli(capsys, ["classify", "--model", "half-line", "--M", M, "--N", N])
    assert code == 0
    report = strict_json(out)["report"]
    assert report["def_dim"] == 1
    assert report["def_evidence"]["energy_verdict"] == "FINITE"
    lo, hi = report["def_evidence"]["energy_enclosure"]
    assert 0 < lo < hi


# sha256 of stdout and of each CSV artifact; the classify and order-12 polys
# hashes were recorded from the Fraction-based recursion the scaled-integer
# kernel replaced, the order-20 polys hashes from the series products the
# division sweeps replaced, and the walk, resolvent and embed hashes from an
# earlier per-command model dispatch. The classify stdout hashes were
# re-recorded when the certified verdict replaced the window flags; outside
# the verdict keys the documents are unchanged (test_boundary.py). They and
# the q-limit polys stdout hash were re-recorded again when the lemma's
# enclosure replaced the heuristic upper_bound
# (test_documents_moved_only_by_the_heuristic_bound). Any change to these
# outputs is deliberate.
PINNED_OUTPUTS = [
    (["classify", "--model", "half-line", "--M", "2", "--N", "300"], {
        "stdout": "02b20b032824865f56cea12df1875c956e5d1fe63c064de6f235e8dca4b91e8d",
        "boundary_curves.csv":
            "8af47bf9f22d6a6065f68be01888beb18e9da15c376bf0e5bc29d05684edd0e6",
    }),
    (["classify", "--model", "sym-line", "--M", "2", "--N", "300"], {
        "stdout": "ea55893712477532b6ee0e5eb495b142fe894e2669382bd56a5fff571d132f5d",
        "boundary_curves.csv":
            "6edbd0f8854d6b5cc5c1c0018840d7a981a135874632e5e1b7a69d76f5207166",
    }),
    (["polys", "--n-max", "40", "--xi", "1/2", "--check-identities", "--order", "12",
      "--growth", "--q-limit"], {
        "stdout": "8b9f10baa4e6cec9e349b447acf5a9ef9d3cc6c69c0b4009296bae6ad25e9d27",
        "polys_eval.csv":
            "ced3659e01e7786db1a449a064e7750e8ddd7dbe997b2f9684b0664bafcb3a0a",
        "polys_table.csv":
            "823a47491206deba588316a2b92da0ebcfcabb611186e04dc0601b0378081c34",
    }),
    (["polys", "--n-max", "40", "--xi", "1/2", "--check-identities", "--order", "20"], {
        "stdout": "d762097edc82e0fe7959a3ed7f9ac0d67485c42eb162f1b9303436e679d19615",
        "polys_eval.csv":
            "ced3659e01e7786db1a449a064e7750e8ddd7dbe997b2f9684b0664bafcb3a0a",
        "polys_table.csv":
            "823a47491206deba588316a2b92da0ebcfcabb611186e04dc0601b0378081c34",
    }),
    (["walk", "--model", "half-line", "--M", "2", "--N", "30", "--start", "5",
      "--steps", "1", "--trials", "100000", "--seed", "7"], {
        "stdout": "79e1acd32d65c00d6f7d3301acd72e350b6073d395df2c32fb05374bbc4ff290",
        "walk_frequencies.csv":
            "a0640d37907a757d7b5a207e3b057bb21d9c31f71c7d49c4a88b56c910399638",
    }),
    (["walk", "--model", "ab-line", "--A", "2", "--B", "3", "--N", "10",
      "--start", "0", "--steps", "1", "--trials", "50000", "--seed", "3"], {
        "stdout": "82c97cb3546dd17e17d64e25b012af96e9200ff257a1fec3607deff02a3dc97b",
        "walk_frequencies.csv":
            "93d05ee6fb83dbb984ece74eab52d29794782e67605472486d03e802fea23bc3",
    }),
    (["walk", "--model", "tree", "--c-const", "1", "--N", "4", "--start", "0",
      "--steps", "2", "--trials", "30000", "--seed", "5"], {
        "stdout": "9e662cf22e1bdc51954ea9d654f4ef1d706c6c507c89bc4213419e2b26e1f67a",
        "walk_frequencies.csv":
            "8789a9b7e8ac4d89ce8099d5ffd4325d3c2c02cbb9da2db636e46ce581fb65e3",
    }),
    (["resolvent", "--model", "half-line", "--M", "2", "--N", "16", "--x", "3"], {
        "stdout": "d0b9e4112773cd55f11de8f20eaa60acb1be7feddecc37c4f4096677aa51c16b",
        "resolvent_u.csv":
            "960308608541eaf11362623b2520babd3f9bd0d333a0c34910d938abe5291776",
    }),
    (["resolvent", "--model", "tree", "--N", "6", "--x", "5"], {
        "stdout": "338574070057b61c40239ad64ce375234544e0d4640ba9cd312b6f7f92f8230a",
        "resolvent_u.csv":
            "398d31bb62f243c631d2bc2735f9af766460bc3eb388a9c27cbf171dcba775d5",
    }),
    (["embed", "--N", "6", "--trials", "30", "--seed", "1"], {
        "stdout": "af262dedd4631c17d447f75e3ddea710986d85af5476179ddce248cd2e42973f",
    }),
    # recorded from the one-vector-at-a-time certificate check that the
    # blocks of test vectors replaced; at N = 12 the 100 vectors run in 50
    # blocks of two
    (["embed", "--N", "4", "--seed", "0"], {
        "stdout": "4a7521fdf3f7632894d55cdf7483f470dea3d03c7ec7ca4edea6bf2049bc2267",
    }),
    (["embed", "--N", "9", "--seed", "0"], {
        "stdout": "21707ad4e69c0e29c6034196de03b858dd6e3a639da73f808df922bfc108600a",
    }),
    (["embed", "--N", "12", "--trials", "100", "--seed", "1"], {
        "stdout": "3b418bc31ee9d8b50b99b75b412ffe6afc389c2102c64121d1ee5fdf78341eee",
    }),
    (["embed", "--N", "7", "--trials", "100", "--seed", "1", "--wrong-psi"], {
        "stdout": "08968b9048f6f7d43e90774d0b1f8266c5603762412bfe4bab7c414268d23711",
    }),
    # recorded while the tree harmonic built a second tree of its own and the
    # certificate folded its worst residuals row by row in Python; the N = 19
    # tree has 1,048,575 vertices
    (["embed", "--N", "3", "--seed", "0"], {
        "stdout": "41d97dceb70cd7c473d73d74650973e81ba3d4d82816a2b2763ef389b19eb083",
    }),
    (["embed", "--N", "7", "--seed", "0"], {
        "stdout": "4fe361b33356710e92bdc352a152e380f0578bc7036fd498ba76d280a1b46a51",
    }),
    (["embed", "--N", "7", "--seed", "0", "--wrong-psi"], {
        "stdout": "1c7df6724b2ceb2832baea1e40b18c2345192c0560cad557181b2c8c541692ff",
    }),
    (["embed", "--N", "10", "--seed", "0"], {
        "stdout": "fd865d427f811fe48ba159632a0fd4303615b050cde7f12bf36b4347bbdcac60",
    }),
    (["embed", "--N", "12", "--seed", "0", "--wrong-psi"], {
        "stdout": "3ae3c201f282136ad55eff53cb4c72e8b30b55becdc06d482b6ef4fd8964debf",
    }),
    (["embed", "--N", "13", "--seed", "0"], {
        "stdout": "713ac0580d6ec12a9ece103687f0d8107a8719753ac97e5223542efc07af930c",
    }),
    (["embed", "--N", "19", "--trials", "2", "--seed", "1"], {
        "stdout": "0bb3287ad86405e36ed4172cd4560f7f1996aa40c8a007396fe7358be5f907c2",
    }),
    # recorded from the per-step rehash of (seed, trial) and the single
    # all-trials pass that the trial blocks replaced; 50,000 trials span
    # several blocks and the tree has degree-3 rows
    (["walk", "--model", "tree", "--N", "9", "--start", "0", "--steps", "12",
      "--trials", "50000", "--seed", "3"], {
        "stdout": "45a02fc8da145e60954b09935a9f8e274c0ccfacafd2e2e01b7831a2d8045bff",
        "walk_frequencies.csv":
            "e919d450193ef18dfeac97f32911966cded222fea7a53a1e0ebd36688d77ce70",
    }),
    (["walk", "--model", "half-line", "--M", "2", "--N", "50", "--start", "5",
      "--steps", "50", "--trials", "200000", "--seed", "11"], {
        "stdout": "b4e13f394182481e670dcb961780c43de4a9f572f996d7494d58290573b0a956",
        "walk_frequencies.csv":
            "7d94ba64d77b4b004c61703a325322e3d8029b29be3cd1195e493389c116c9bb",
    }),
    # the files are written by _write_energy_inputs into the working directory;
    # recorded from the string-word tree builder and the per-edge weight loop
    (["energy", "--graph", "tree.txt", "--vector", "v.csv"], {
        "stdout": "4dd9bcbdd9c5b64fa99a39e1fd8b81eed5cbcca8b37f6d5958a318fe3f8a9620",
        "laplacian.csv":
            "e65e0764336070d0a46262bf45c0f0550de274d812d7ef9df25b9ec3f38678f9",
        "graph_echo.txt":
            "463cfa39e92060dcd03ebaaf3536103a722cde5c5cf3932f20762c4a545d1376",
    }),
    # hand-written files in the many spellings the readers accept; recorded
    # from the per-line int()/float() readers the bulk numpy parse replaced
    (["energy", "--graph", "messy.txt", "--vector", "messy.csv"], {
        "stdout": "834b1b1bbc1effac8e98992c2ee2446aee739c821551e56f627451f6ccc7faff",
        "laplacian.csv":
            "d390e705dc2a48cba90aae6d8a3413cdeded0a64f901ef255e9065ea83c42dcb",
        "graph_echo.txt":
            "2b6330f04b6c67f95dde7ca65d7600af0b1ae1dae71c7842f296239e6dc78353",
    }),
    # a tree file with shuffled and flipped edges, so the solve's elimination
    # order comes from the per-vertex neighbour order; recorded from the
    # list-of-tuples adjacency the CSR view replaced
    (["resolvent", "--graph", "shuffled.txt", "--x", "37"], {
        "stdout": "314f8a33be5bc174f0b2052880421f6852b5b6b687912227dc31a5736a1d9905",
        "resolvent_u.csv":
            "a6076c22801d44455828e106fca1f21be106f622bfa4c4fd195314ed6e199c10",
    }),
    # recorded from the depth-first search and vertex-at-a-time elimination
    # that the parent-first numbering and level elimination replaced: the
    # tree runs the level kernel, the two lines the scalar loop
    (["resolvent", "--model", "tree", "--N", "9", "--x", "700"], {
        "stdout": "b545ab4acd7f6795d1cf61eac7d0446998f876961961b971eb4d698b673531fc",
        "resolvent_u.csv":
            "f65a57f81125ab6dd5346b6d0431a8a61d1ab57977db5ecee3c20ae68c0b9aca",
    }),
    # the next two stdout hashes were re-recorded when the solve's backward
    # residual became the only residual gate: both runs moved from exit 2 to
    # 0 (test_moved_resolvent_documents_differ_only_in_the_verdict)
    (["resolvent", "--model", "half-line", "--M", "2", "--N", "600", "--x", "300"], {
        "stdout": "9147dae68f9f46b2b41153bcb9ee79716d204bfb1b72c1a59640a24219cce0ec",
        "resolvent_u.csv":
            "d1724975709d3fd90f155786952b225eba1d01d9bd9368245adf57685d047129",
    }),
    (["resolvent", "--model", "sym-line", "--M", "2", "--N", "64", "--x", "6"], {
        "stdout": "75c4f6011398adb3a534acf0239f1f9cd3ec04e7e39d405cb32f31c3b05dc3dc",
        "resolvent_u.csv":
            "c584caa43b550a3bb86ef32ce4842ec3a6f6ea38aec565e15983af28088a1a93",
    }),
    # a tree file like shuffled.txt with its vertices renumbered too, so the
    # solve orients it by a search; recorded from the depth-first search and
    # vertex-at-a-time elimination that the breadth-first search and the
    # shared elimination kernels replaced
    (["resolvent", "--graph", "relabelled.txt", "--x", "37"], {
        "stdout": "60ac163dd1e7bff7adba0bbcfd1d790eea5638b4cb4dc539339f613400be9b32",
        "resolvent_u.csv":
            "b2b5ff06cf92d7ed0fe6c83ff0c53891c7f44e2913d71887442a0c212f2df95d",
    }),
    # recorded from the float-uniform walk steps and the per-edge dict tallies
    # that the integer thresholds and the sorted tally arrays replaced: the
    # root row has one threshold, the inner rows two, and 4,092 ordered edges
    # and 188 frequency rows are tallied
    (["walk", "--model", "tree", "--N", "10", "--start", "0", "--steps", "20",
      "--trials", "20000", "--seed", "3"], {
        "stdout": "ab517e21a468421bf255de3a641dc520564889aa944aa9c2f8f67974f9deb285",
        "walk_frequencies.csv":
            "6e3d3a1af739fb421bda2cc5d393d5b8a7228edff2186b3e3ab9380367d21960",
    }),
]

# comments, blank lines, tabs, CRLF, a leading '+', exponents, -0.0, a
# subnormal, a 17-digit repr, multi-word, empty and missing labels, a
# duplicate and missing vector rows and an upper-case header
MESSY_GRAPH = (
    "# hand-written: comments, blank lines, tabs and CRLF\r\n"
    "\n"
    "   graph 6 6 +0\r\n"
    "edge 0 1 1e0\n"
    "\tedge\t1\t2\t2.5E-3\n"
    "edge 2 3 0.30000000000000004\r\n"
    " edge 3 4 +7\n"
    "  # an indented comment\n"
    "edge 4 5 4.9406564584124654e-324\n"
    "edge +0 5 -0.0\n"
    "label 0 root vertex\n"
    "label 2\n"
    "label\t5   far   end   \n"
)
MESSY_VECTOR = (
    "\n"
    "VERTEX,Value\r\n"
    "0,1.5\n"
    " 1 , -2e-3\n"
    "\n"
    "2,+0.1\n"
    "5\t,\t1e-310\n"
    "2,0.30000000000000004\n"
)


def _write_energy_inputs(directory):
    g = build_dyadic_tree(0.5, 3)
    (directory / "tree.txt").write_text(write_graph(g))
    (directory / "v.csv").write_text(
        write_vector(vector(g, [i / 4 for i in range(g.n_vertices)])))
    (directory / "messy.txt").write_text(MESSY_GRAPH)
    (directory / "messy.csv").write_text(MESSY_VECTOR)
    (directory / "shuffled.txt").write_text(_shuffled_tree_text())
    (directory / "relabelled.txt").write_text(_shuffled_tree_text(9, 13, relabel=True))


def _shuffled_tree_text(N=8, seed=12, relabel=False):
    """The depth-N binary tree as a file: edges shuffled, about half of them
    written child first, conductances spread over six decades; with relabel
    the vertices are randomly renumbered too, so no parent need be smaller
    than its child."""
    rng = np.random.default_rng(seed)
    child = np.arange(1, 2 ** (N + 1) - 1)
    parent = (child - 1) // 2
    flip = rng.random(child.size) < 0.5
    first, second = np.where(flip, child, parent), np.where(flip, parent, child)
    conductances = 10.0 ** rng.uniform(-3, 3, child.size)
    rows = rng.permutation(child.size)
    if relabel:
        label = rng.permutation(child.size + 1)
        first, second = label[first], label[second]
    return (f"graph {child.size + 1} {child.size} 0\n"
            + "".join(f"edge {x} {y} {c!r}\n" for x, y, c in zip(
                first[rows].tolist(), second[rows].tolist(), conductances[rows].tolist())))


JSON_DOCS = [
    {},
    [],
    {"a": {}, "b": [], "c": [{}], "d": [[]], "e": {"f": {"g": [], "h": {}}}, "i": ()},
    [[], [[]], [{}], {"x": []}],
    [{"b": 1, "a": 2}, {"c": [3, {"d": ()}]}, (4, (5, 6), ()), ({"e": 7},)],
    {"z": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 0.1, 1 / 3]},
    {"s": "h\u00e9llo \u2603 \U0001f600 \"q\" \\ \t\n", "\u00fc": ["\u00df", {"\u2603": "x"}]},
    {"t": True, "f": False, "n": None, "l": [True, False, None, 0, -1, 2 ** 70]},
    {10: "ten", 9: [1, 2], 2.5: {"k": None}, -1: []},
    [[[[1, [2]]]], {"deep": [[{"deeper": [[], {}]}]]}],
    "text", 7, -0.0, math.nan, None, True,
]


@pytest.mark.parametrize("doc", JSON_DOCS)
def test_json_text_matches_the_indenting_stdlib_encoder(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_text_without_the_c_encoder(monkeypatch):
    # where the json module has no C encoder, JSONEncoder.encode stands in
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    cli._json_flat.cache_clear()
    try:
        for doc in JSON_DOCS:
            assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    finally:
        cli._json_flat.cache_clear()


@pytest.mark.parametrize("argv,hashes", PINNED_OUTPUTS)
def test_pinned_outputs_are_byte_identical(argv, hashes, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_energy_inputs(tmp_path)
    config = _resolved(argv)
    _code, text, files = cli.execute(config)
    outputs = dict(files, stdout=text)
    assert sorted(outputs) == sorted(hashes)
    for name, digest in hashes.items():
        assert hashlib.sha256(outputs[name].encode()).hexdigest() == digest, name
    strict_json(text)


@pytest.mark.parametrize("argv", [argv for argv, _hashes in PINNED_OUTPUTS])
def test_replay_parses_each_echo_back_to_itself(argv):
    config = _resolved(argv)
    assert cli._replay_config(json.loads(cli._json_text(config))) == config


# sha256 of the stdout of the two runs whose pinned hashes moved, as they
# were when the CLI also gated the absolute and punctured residuals
FORMER_REFUSAL_STDOUT = [
    (["resolvent", "--model", "half-line", "--M", "2", "--N", "600", "--x", "300"],
     "db99c00aaaa78d78bf19ac0dd37ab9abc0c62a9998196e57ef3d5a4b36c70e2e"),
    (["resolvent", "--model", "sym-line", "--M", "2", "--N", "64", "--x", "6"],
     "1bdc8759d3b0c4c4321c83673fab3b06f873e082d745a958bd4ee10c48ea499b"),
]


# sha256 of the stdout of the three runs whose pinned hashes moved when the
# lemma's enclosure replaced the heuristic upper_bound, with the key path and
# the upper_bound each document then carried (within_bound was true in each)
FORMER_BOUND_STDOUT = [
    (["classify", "--model", "half-line", "--M", "2", "--N", "300"], ("report", "def_evidence"),
     5.476570785333181, "b8336c06e82f199c863e90a8db1c82912d7c8d6b161f09f932d538c0cfcd92fe"),
    (["classify", "--model", "sym-line", "--M", "2", "--N", "300"], ("report", "def_evidence"),
     4.422340657644858, "4a7a151921998dca985b9867bb9208d226c7e249cc49ff181f509f23c51c8ce0"),
    (["polys", "--n-max", "40", "--xi", "1/2", "--check-identities", "--order", "12",
      "--growth", "--q-limit"], ("q_limit",),
     5.476570785333181, "3de4f1adf55f10ab585069d4fef0abffa35955f8963e9f3ece6afde134fc6958"),
]


@pytest.mark.parametrize("argv,path,former_bound,former_digest", FORMER_BOUND_STDOUT)
def test_documents_moved_only_by_the_heuristic_bound(argv, path, former_bound, former_digest):
    # with the former bound put back, each document is the former one: the
    # classify evidence lost upper_bound and within_bound, and q_limit, whose
    # value and row did not move at 1/2, reports the lemma's bound instead
    doc = json.loads(cli.execute(_resolved(argv))[1])
    record = doc
    for key in path:
        record = record[key]
    if path == ("q_limit",):
        assert record["value"] <= record["upper_bound"] < former_bound
    else:
        assert "upper_bound" not in record and "within_bound" not in record
    record.update(upper_bound=former_bound, within_bound=True)
    assert hashlib.sha256(cli._json_text(doc).encode()).hexdigest() == former_digest


@pytest.mark.parametrize("argv,former_digest", FORMER_REFUSAL_STDOUT)
def test_moved_resolvent_documents_differ_only_in_the_verdict(argv, former_digest):
    # with the former verdict put back, each document is the former one
    doc = json.loads(cli.execute(_resolved(argv))[1])
    assert (doc["contract_ok"], doc["exit_code"]) == (True, 0)
    doc["contract_ok"], doc["exit_code"] = False, 2
    assert hashlib.sha256(cli._json_text(doc).encode()).hexdigest() == former_digest
