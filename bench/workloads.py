"""The three workloads: their operation lists, inputs and output checks.

A workload is a fixed list of operations. The seed picks poles and
sources, walk and certificate seeds and the serialized vector; it never
picks a size, so the cost of a pass does not depend on it. Every
operation's output is checked here, with code that does not reuse the
solver or recursion under test:

* solves: the benchmark's own normwise backward residual of the returned
  vector, computed from the model's edge list with numpy;
* polys: sampled ``pair_values_sequence`` entries against
  ``matrix_product_pair``; classify: the dimensions the paper proves and
  the flux recursion of the returned curves;
* walk: edge counts are conserved, stay on edges and match the kernel
  within six standard deviations, and the JSON document is byte-identical
  on every pass (replay is deterministic);
* energy: energy and Laplacian against a numpy computation, and the graph
  echo against the serialized input.

A CLI exit code 2 is not a failure by itself: it is counted as a claim
exit. Operations the parent program is known to fail carry the error class
it fails with, so a run can tell a known failure from a new one.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from resistnet import cli, graphs, polynomials

energy_module = importlib.import_module("resistnet.energy")

WORKLOADS = ("exact-recursion", "solve", "walk-io")

BACKWARD_TOL = 1e-9      # normwise backward error accepted for a float solve
WALK_SIGMA = 6.0         # z-score band of the benchmark's own walk check
ENERGY_TREE_DEPTH = 16   # 131,071 vertices


class CheckFailed(Exception):
    """An operation returned, but its output failed the benchmark's check."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_failure: Optional[str] = None   # error class the baseline fails with


def _require(condition, kind, message):
    if not condition:
        raise CheckFailed(kind, message)


def cli_config(argv):
    """Resolve a command line into the config dict that ``cli.execute`` runs.

    Goes through the CLI's own parser, so defaults are filled exactly as
    they are for a user typing the command.
    """
    return cli._config_from_args(cli._build_parser().parse_args(argv))


def cli_op(name, argv, check, known_failure=None):
    config = cli_config(argv)
    return Op(name, lambda: cli.execute(config), check, known_failure)


def _doc(output):
    code, text, files = output
    return json.loads(text), files


# -- independent numerics -------------------------------------------------------

class EdgeModel:
    """Edge arrays of one model instance and the operators built from them."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n_vertices
        self.ex = np.array([e[0] for e in graph.edges], dtype=np.int64)
        self.ey = np.array([e[1] for e in graph.edges], dtype=np.int64)
        self.ec = np.array([e[2] for e in graph.edges], dtype=float)
        self.weights = (np.bincount(self.ex, self.ec, self.n)
                        + np.bincount(self.ey, self.ec, self.n))

    def laplacian(self, u):
        flow = self.ec * (u[self.ex] - u[self.ey])
        return np.bincount(self.ex, flow, self.n) - np.bincount(self.ey, flow, self.n)

    def backward_error(self, u, shift, rhs):
        """Normwise backward error of (shift I + L) u = rhs in the infinity norm.

        ||shift I + L||_inf is max over rows of shift + 2 c(x).
        """
        resid = shift * u + self.laplacian(u) - rhs
        scale = np.max(shift + 2 * self.weights) * np.max(np.abs(u)) + np.max(np.abs(rhs))
        return float(np.max(np.abs(resid)) / scale)

    def probabilities(self):
        """{(x, y): c(x, y) / c(x)} for both orientations of every edge."""
        probs = {}
        for x, y, c in zip(self.ex.tolist(), self.ey.tolist(), self.ec.tolist()):
            probs[(x, y)] = c / self.weights[x]
            probs[(y, x)] = c / self.weights[y]
        return probs


def _read_vector_csv(text, n):
    values = np.zeros(n)
    for row in text.splitlines()[1:]:
        i, v = row.split(",", 1)
        values[int(i)] = float(v)
    return values


# -- exact-recursion --------------------------------------------------------------

def _float_q_limit(xi, tol):
    p, q, xi_pow = 0.0, 1.0, 1.0
    while True:
        xi_pow *= xi
        p += q
        inc = xi_pow * p
        q += inc
        if inc < tol * q:
            return q


def _check_flux_curves(files, M, family):
    """Flux recursion mu(x+1) du(x+1) = mu(x) du(x) + u(x) on the returned curves.

    Together with the vertex-0 row this is Lap u = -u on the interior; it
    is checked on the floated exact increments, which keep full relative
    precision where u itself has stopped changing in floating point.
    """
    rows = files["boundary_curves.csv"].splitlines()
    header = rows[0].split(",")
    cols = {k: i for i, k in enumerate(header)}
    data = [r.split(",") for r in rows[1:]]
    u = [float(r[cols["u"]]) for r in data]
    du = [float(r[cols["du"]]) for r in data]
    mu = [M ** x for x in range(len(u))]
    zero_row = (mu[1] * du[1] - u[0] / 2 if family == "sym-line"
                else mu[1] * du[1] - u[0])
    _require(abs(zero_row) <= 1e-12 * abs(u[0]), "ResidualTooLarge",
             f"vertex-0 row off by {zero_row:g}")
    worst = 0.0
    for x in range(1, len(u) - 1):
        lhs, rhs = mu[x + 1] * du[x + 1], mu[x] * du[x] + u[x]
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    _require(worst <= BACKWARD_TOL, "ResidualTooLarge",
             f"flux recursion relative residual {worst:g}")


def _classify_check(family, M, N, certified=True):
    """Verdict and curve checks for one classify run.

    certified=False accepts an explicitly inconclusive defect verdict (None)
    but still fails a confident wrong one.
    """
    def check(output):
        doc, files = _doc(output)
        report = doc["report"]
        _require(report["N"] == N, "OutputMismatch", "report depth differs from request")
        if family == "half-line":
            # the geometric half line has no harmonic vector and one defect vector
            _require(report["harm_dim"] == 0, "WrongVerdict",
                     f"harm_dim {report['harm_dim']}, the half line has 0")
            accepted = (1,) if certified else (1, None)
            _require(report["def_dim"] in accepted, "WrongVerdict",
                     f"def_dim {report['def_dim']}, the half line has 1")
        else:
            _require(report["harm_dim"] == 1, "WrongVerdict",
                     f"harm_dim {report['harm_dim']}, the symmetric line has 1")
            _require(report["def_dim"] != 0, "WrongVerdict",
                     "def_dim 0, but the symmetric defect vector has finite energy")
        _check_flux_curves(files, M, family)
    return check


def _polys_check(xi, sample):
    def check(output):
        doc, files = _doc(output)
        _require(all(doc["identities"].values()), "CheckFailed",
                 f"identities {doc['identities']}")
        growth = doc["growth"]
        for key in ("lower_linear_ok", "cumulative_identity_ok", "cube_bound_ok"):
            _require(growth[key] is True, "CheckFailed", f"growth {key} is {growth[key]}")
        evals = files["polys_eval.csv"].splitlines()[1:]
        table = files["polys_table.csv"].splitlines()[1:]
        for n in sample:
            _n, _xi, p_text, q_text = evals[n].split(",")
            p, q = Fraction(p_text), Fraction(q_text)
            _require((p, q) == polynomials.matrix_product_pair(n, xi), "OutputMismatch",
                     f"pair values at n={n} differ from the matrix product")
            _row_n, p_coeffs, q_coeffs = table[n - 1].split(",")
            p_poly = sum(int(c) * xi ** k for k, c in enumerate(p_coeffs.split(";")))
            q_poly = sum(int(c) * xi ** k for k, c in enumerate(q_coeffs.split(";")))
            _require((p_poly, q_poly) == (p, q), "OutputMismatch",
                     f"table row n={n} does not evaluate to the pair values")
    return check


def _q_limit_check(xi, tol):
    expected = _float_q_limit(float(xi), tol)

    def check(output):
        doc, _files = _doc(output)
        q = doc["q_limit"]
        for key in ("monotone_ok", "above_one_ok", "within_bound"):
            _require(q[key] is True, "CheckFailed", f"q_limit {key} is {q[key]}")
        _require(abs(q["value"] - expected) <= 1e-9 * expected, "OutputMismatch",
                 f"q limit {q['value']!r}, float iteration gives {expected!r}")
    return check


def exact_recursion(rng, workdir):
    xi = Fraction(1, 2)
    sample = sorted(rng.choice(np.arange(1, 41), size=5, replace=False).tolist())
    return [
        cli_op("classify-half-M2-N300",
               ["classify", "--model", "half-line", "--M", "2", "--N", "300"],
               _classify_check("half-line", 2.0, 300)),
        cli_op("classify-sym-M2-N300",
               ["classify", "--model", "sym-line", "--M", "2", "--N", "300"],
               _classify_check("sym-line", 2.0, 300)),
        cli_op("classify-half-M1.1-N60",
               ["classify", "--model", "half-line", "--M", "1.1", "--N", "60"],
               _classify_check("half-line", 1.1, 60, certified=False),
               known_failure="WrongVerdict"),
        cli_op("polys-identities-growth",
               ["polys", "--n-max", "40", "--xi", "1/2", "--check-identities",
                "--order", "12", "--growth"],
               _polys_check(xi, sample)),
        cli_op("polys-q-limit", ["polys", "--xi", "3/4", "--q-limit"],
               _q_limit_check(Fraction(3, 4), 1e-10)),
    ]


# -- solve ----------------------------------------------------------------------

def _dipole_check(model, pole):
    def check(vector):
        u = np.asarray(vector.values, dtype=float)
        o = model.graph.base_vertex
        _require(u[o] == 0.0, "OutputMismatch", "dipole is not pinned at the base vertex")
        rhs = np.zeros(model.n)
        rhs[pole], rhs[o] = 1.0, -1.0
        err = model.backward_error(u, 0.0, rhs)
        _require(err <= BACKWARD_TOL, "ResidualTooLarge", f"backward error {err:g}")
    return check


def _resolvent_check(model, source):
    def check(output):
        u = _read_vector_csv(output[2]["resolvent_u.csv"], model.n)
        rhs = np.zeros(model.n)
        rhs[source] = 1.0
        err = model.backward_error(u, 1.0, rhs)
        _require(err <= BACKWARD_TOL, "ResidualTooLarge", f"backward error {err:g}")
        # (I + Lap)^-1 is a contraction on l2
        _require(float(np.linalg.norm(u)) <= 1.0 + 1e-12, "CheckFailed",
                 "resolvent solution has l2 norm above 1")
    return check


def _embed_check(depth):
    def check(output):
        doc, _files = _doc(output)
        _require(doc["certificate"]["passed"], "CheckFailed",
                 "the tree-to-half-line certificate failed")
        mono = doc["monopole_transport"]
        # unit flux through conductances 2^n, n = 1..N, pinned at depth N
        expect = 1.0 - 2.0 ** -depth
        for key in ("target_energy", "transported_energy"):
            _require(abs(mono[key] - expect) <= 1e-9 * expect, "OutputMismatch",
                     f"monopole {key} {mono[key]!r}, expected {expect!r}")
        tree = doc["tree_harmonic"]
        # h = A (1 - 2^-k) on each side with A = 1 / (1 - 2^-N): energy A
        expect = 1.0 / (1.0 - 2.0 ** -depth)
        _require(abs(tree["energy_value"] - expect) <= 1e-9 * expect, "OutputMismatch",
                 f"tree harmonic energy {tree['energy_value']!r}, expected {expect!r}")
        _require(abs(tree["root_value"]) <= 1e-12 and tree["antisymmetric_ok"],
                 "CheckFailed", "tree harmonic vector is not odd about the root")
    return check


def _resolvent_op(name, model_args, graph, coordinate, known_failure=None):
    argv = ["resolvent"] + model_args + ["--x", str(coordinate)]
    check = _resolvent_check(EdgeModel(graph), graph.index_of(coordinate))
    return cli_op(name, argv, check, known_failure)


def solve(rng, workdir):
    tree6 = graphs.build_dyadic_tree(1.0, 6)
    tree9 = graphs.build_dyadic_tree(1.0, 9)
    half100 = graphs.build_half_line(2.0, 100)
    half600 = graphs.build_half_line(2.0, 600)
    sym64 = graphs.build_sym_line(2.0, 64)
    pole = int(rng.integers(1, tree6.n_vertices))
    src6 = int(rng.integers(0, tree6.n_vertices))
    src9 = int(rng.integers(0, tree9.n_vertices))
    x100 = int(rng.integers(0, 101))
    x600 = int(rng.integers(0, 601))
    x64 = int(rng.integers(-64, 65))
    embed_seed = int(rng.integers(0, 2**31))

    def dipole():
        graph = graphs.build_dyadic_tree(1.0, 6)
        return energy_module.solve_dipole(graph, pole)

    tree = ["--model", "tree", "--N"]
    half = ["--model", "half-line", "--M", "2", "--N"]
    return [
        Op("dipole-tree-N6", dipole, _dipole_check(EdgeModel(tree6), pole)),
        _resolvent_op("resolvent-tree-N6", tree + ["6"], tree6, src6),
        _resolvent_op("resolvent-half-N100", half + ["100"], half100, x100),
        _resolvent_op("resolvent-sym-N64", ["--model", "sym-line", "--M", "2", "--N", "64"],
                      sym64, x64, known_failure="LinAlgError"),
        _resolvent_op("resolvent-half-N600", half + ["600"], half600, x600,
                      known_failure="SolverError"),
        _resolvent_op("resolvent-tree-N9", tree + ["9"], tree9, src9),
        cli_op("embed-N7", ["embed", "--N", "7", "--seed", str(embed_seed)], _embed_check(7)),
    ]


# -- walk-io --------------------------------------------------------------------

def _walk_check(model, steps, trials):
    probs = model.probabilities()
    seen = {}

    def check(output):
        code, text, _files = output
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = seen.setdefault("digest", digest)
        _require(digest == first, "NotReproducible",
                 "walk document differs from the first pass with the same seed")
        stats = json.loads(text)["stats"]
        counts = {}
        for key, n in stats["edge_counts"].items():
            x, y = (int(v) for v in key.split("->"))
            _require((x, y) in probs, "OutputMismatch", f"walk moved along non-edge {key}")
            counts[(x, y)] = n
        _require(sum(counts.values()) == steps * trials, "OutputMismatch",
                 "edge counts do not add up to steps x trials")
        inflow = np.zeros(model.n, dtype=np.int64)
        exits = np.zeros(model.n, dtype=np.int64)
        for (x, y), n in counts.items():
            inflow[y] += n
            exits[x] += n
        _require(inflow.tolist() == stats["visit_counts"], "OutputMismatch",
                 "visit counts differ from the arrivals along edges")
        worst = 0.0
        for (x, y), p in probs.items():
            if exits[x] < 1000:
                continue
            emp = counts.get((x, y), 0) / exits[x]
            var = p * (1.0 - p) / exits[x]
            z = abs(emp - p) / math.sqrt(var) if var > 0 else (0.0 if emp == p else math.inf)
            worst = max(worst, z)
        _require(worst <= WALK_SIGMA, "CheckFailed",
                 f"transition frequency {worst:.1f} sigma from the kernel")
    return check


def _tree_files(rng, workdir, depth):
    """Serialize the binary tree (heap order, bit-word labels) and a random vector."""
    n = 2 ** (depth + 1) - 1
    lines = [f"graph {n} {n - 1} 0"]
    lines += [f"edge {(i - 1) // 2} {i} 1.0" for i in range(1, n)]
    lines += [f"label {i} {bin(i + 1)[3:]}" for i in range(n)]
    graph_text = "\n".join(lines) + "\n"
    values = rng.standard_normal(n)
    vector_text = "vertex,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist()))
    graph_path = os.path.join(workdir, f"tree{depth}.graph")
    vector_path = os.path.join(workdir, f"tree{depth}.csv")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(graph_text)
    with open(vector_path, "w", encoding="utf-8") as fh:
        fh.write(vector_text)
    return graph_path, vector_path, graph_text, values


def _energy_check(graph_text, values):
    n = len(values)
    child = np.arange(1, n)
    parent = (child - 1) // 2
    diff = values[parent] - values[child]
    expect_energy = float(np.sum(diff * diff))
    lap = np.bincount(parent, diff, n) - np.bincount(child, diff, n)
    degree = np.bincount(parent, minlength=n) + np.bincount(child, minlength=n)
    scale = degree * np.abs(values) + np.bincount(parent, np.abs(values[child]), n) \
        + np.bincount(child, np.abs(values[parent]), n)

    def check(output):
        doc, files = _doc(output)
        _require(doc["n_vertices"] == n and doc["n_edges"] == n - 1, "OutputMismatch",
                 "vertex or edge count differs from the serialized tree")
        _require(abs(doc["energy"] - expect_energy) <= 1e-10 * expect_energy,
                 "OutputMismatch", f"energy {doc['energy']!r}, expected {expect_energy!r}")
        got = _read_vector_csv(files["laplacian.csv"], n)
        err = float(np.max(np.abs(got - lap) / scale))
        _require(err <= 1e-14, "ResidualTooLarge", f"Laplacian differs by {err:g} relative")
        _require(files["graph_echo.txt"] == graph_text,
                 "OutputMismatch", "graph echo differs from the serialized input")
    return check


def walk_io(rng, workdir):
    tree12 = graphs.build_dyadic_tree(1.0, 12)
    half50 = graphs.build_half_line(2.0, 50)
    seed_tree, seed_half = (int(s) for s in rng.integers(0, 2**31, size=2))
    graph_path, vector_path, graph_text, values = _tree_files(rng, workdir, ENERGY_TREE_DEPTH)
    return [
        cli_op("walk-tree-N12",
               ["walk", "--model", "tree", "--N", "12", "--start", "0", "--steps", "20",
                "--trials", "100000", "--seed", str(seed_tree)],
               _walk_check(EdgeModel(tree12), 20, 100000)),
        cli_op("walk-half-N50",
               ["walk", "--model", "half-line", "--M", "2", "--N", "50", "--start", "5",
                "--steps", "50", "--trials", "200000", "--seed", str(seed_half)],
               _walk_check(EdgeModel(half50), 50, 200000)),
        cli_op("energy-tree-N16", ["energy", "--graph", graph_path, "--vector", vector_path],
               _energy_check(graph_text, values)),
    ]


BUILDERS = {"exact-recursion": exact_recursion, "solve": solve, "walk-io": walk_io}

# Small instances of each command, run once before timing starts so that
# lazily imported code paths are loaded.
WARM_UP = {
    "exact-recursion": [
        ["classify", "--model", "half-line", "--M", "2", "--N", "20"],
        ["polys", "--n-max", "12", "--xi", "1/2", "--check-identities", "--order", "4",
         "--growth", "--q-limit"],
    ],
    "solve": [
        ["resolvent", "--model", "half-line", "--M", "2", "--N", "8", "--x", "1"],
        ["resolvent", "--model", "tree", "--N", "3", "--x", "1"],
        ["embed", "--N", "3", "--trials", "2"],
    ],
    "walk-io": [
        ["walk", "--model", "half-line", "--M", "2", "--N", "8", "--start", "1",
         "--steps", "3", "--trials", "1000"],
    ],
}


def build(name, seed, workdir):
    """Generate the workload's inputs from the seed and return its operations."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](rng, workdir)


def warm_up(name):
    calls = [lambda argv=argv: cli.execute(cli_config(argv)) for argv in WARM_UP[name]]
    if name == "solve":
        calls.append(lambda: energy_module.solve_dipole(graphs.build_dyadic_tree(1.0, 2), 1))
    for call in calls:
        try:
            call()
        except Exception:   # a failing command is measured and reported by its timed op
            pass
