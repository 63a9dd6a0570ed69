import hashlib
import json

import pytest

from resistnet import cli, polynomials
from resistnet.energy import vector, write_vector
from resistnet.graphs import path_graph, write_graph


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
    capsys.readouterr()
    assert code == 64


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
    assert code in (0, 2)
    doc = json.loads(out)
    assert doc["resolvent"]["diagnostics"]["method"] == "tree"
    assert doc["resolvent"]["diagnostics"]["residual"] <= 1e-15
    assert doc["exit_code"] == code


def test_resolvent_solver_failure_is_structured(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(write_graph(path_graph([-1.0])))
    code, out = run_cli(capsys, ["resolvent", "--graph", str(graph_file), "--x", "0"])
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
    ["classify", "--model", "half-line", "--M", "inf", "--N", "10"],
    # {dir} is a scratch directory holding the files written below
    ["energy", "--graph", "{dir}/missing.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/g.txt", "--vector", "{dir}/missing.csv"],
    ["energy", "--graph", "{dir}/bad_header.txt", "--vector", "{dir}/v.csv"],
    ["energy", "--graph", "{dir}/bad_edge.txt", "--vector", "{dir}/v.csv"],
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
])
def test_bad_input_is_a_usage_error(argv, capsys, tmp_path):
    (tmp_path / "g.txt").write_text(write_graph(path_graph([1.0])))
    (tmp_path / "v.csv").write_text("vertex,value\n0,1.0\n1,0.0\n")
    (tmp_path / "bad_header.txt").write_text("graph 2\nedge 0 1 1.0\n")
    (tmp_path / "bad_edge.txt").write_text("graph 2 1 0\nedge 0 one 1.0\n")
    (tmp_path / "bad_row.csv").write_text("vertex,value\n0;1.0\n")
    (tmp_path / "bad_value.csv").write_text("vertex,value\n0,one\n")
    (tmp_path / "vertex_7.csv").write_text("vertex,value\n7,1.0\n")
    (tmp_path / "vertex_neg.csv").write_text("vertex,value\n-1,1.0\n")
    (tmp_path / "bad.json").write_text("{not json")
    code = cli.main([arg.format(dir=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("resistnet: error: ")
    assert captured.err.count("\n") == 1


def test_q_limit_non_convergence_is_structured(capsys, monkeypatch):
    def no_convergence(xi, tol):
        raise polynomials.QLimitError("no convergence", 5000, 1.5, 1e-3)

    monkeypatch.setattr(polynomials, "q_limit", no_convergence)
    code, out = run_cli(capsys, ["polys", "--xi", "1/2", "--q-limit"])
    assert code == 2
    doc = json.loads(out)
    assert doc["q_limit"] == {"error": {
        "class": "QLimitError", "message": "no convergence", "n_reached": 5000}}
    assert doc["exit_code"] == 2


def test_classify_half_line_uncertified_window_exits_2(capsys):
    code, out = run_cli(capsys, ["classify", "--model", "half-line",
                                 "--M", "1.1", "--N", "60"])
    assert code == 2
    report = json.loads(out)["report"]
    assert report["def_dim"] is None
    assert report["def_hard"] is False


# sha256 of stdout and of each CSV artifact; the classify and polys hashes were
# recorded from the Fraction-based recursion the scaled-integer kernel
# replaced, the walk, resolvent and embed hashes from the per-command model
# dispatch that ModelSpec replaced. Any change to these outputs is deliberate.
PINNED_OUTPUTS = [
    (["classify", "--model", "half-line", "--M", "2", "--N", "300"], {
        "stdout": "49631dcf05624c2f28bb50a87241db361ea88fb6e9548c541466eeed9641458d",
        "boundary_curves.csv":
            "8af47bf9f22d6a6065f68be01888beb18e9da15c376bf0e5bc29d05684edd0e6",
    }),
    (["classify", "--model", "sym-line", "--M", "2", "--N", "300"], {
        "stdout": "5773d0ae6079b78263426c2864abe03bf547c70701a6caf0c1ebc7a76beb56ae",
        "boundary_curves.csv":
            "6edbd0f8854d6b5cc5c1c0018840d7a981a135874632e5e1b7a69d76f5207166",
    }),
    (["polys", "--n-max", "40", "--xi", "1/2", "--check-identities", "--order", "12",
      "--growth", "--q-limit"], {
        "stdout": "3de4f1adf55f10ab585069d4fef0abffa35955f8963e9f3ece6afde134fc6958",
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
]


@pytest.mark.parametrize("argv,hashes", PINNED_OUTPUTS)
def test_pinned_outputs_are_byte_identical(argv, hashes):
    config = cli._config_from_args(cli._build_parser().parse_args(argv))
    _code, text, files = cli.execute(config)
    outputs = dict(files, stdout=text)
    assert sorted(outputs) == sorted(hashes)
    for name, digest in hashes.items():
        assert hashlib.sha256(outputs[name].encode()).hexdigest() == digest, name
