"""Command-line front end.

Every command resolves its full configuration (defaults included), runs,
and emits a single JSON document on stdout whose "config" member echoes
that configuration; `resistnet replay <file>` reruns a command from such
an echo and reproduces the output byte for byte. CSV artifacts are
embedded in the JSON and also written as files when --out-dir is given.

Exit codes: 0 success, 2 a checked claim or a solve failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import boundary, embedding, graphs, polynomials, walk
from .energy import apply_laplacian, energy as energy_of, read_vector, write_vector
from .linsolve import SolverError

USAGE_EXIT = 64
CLAIM_EXIT = 2

_MODEL_NAMES = {
    "half-line": graphs.HALF_LINE_GEOM,
    "sym-line": graphs.LINE_GEOM_SYM,
    "ab-line": graphs.LINE_AB,
    "tree": graphs.DYADIC_TREE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


def _parse_fraction(text):
    text = str(text)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _fraction_str(value):
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _default_seed(value):
    if value is not None:
        return int(value)
    env = os.environ.get("RESISTNET_SEED")
    return int(env) if env else 0


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _model_spec(config):
    """The ModelSpec named by the config's model keys; bad parameters are usage errors."""
    if config["model"] not in _MODEL_NAMES:
        raise UsageError(f"unknown model {config['model']!r}")
    try:
        return graphs.ModelSpec(_MODEL_NAMES[config["model"]], config["N"],
                                M=config.get("M"), A=config.get("A"), B=config.get("B"),
                                c_const=config.get("c_const"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_file(path, parse):
    """parse(text) of a file named on the command line.

    A missing, unreadable or malformed file is a usage error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- polys --------------------------------------------------------------------

def _polys_table_csv(pairs):
    lines = ["n,p_coeffs,q_coeffs"]
    for pair in pairs[1:]:
        p = ";".join(str(c) for c in pair.p.coeffs)
        q = ";".join(str(c) for c in pair.q.coeffs)
        lines.append(f"{pair.n},{p},{q}")
    return "\n".join(lines) + "\n"


def _polys_eval_csv(xi, values):
    lines = ["n,xi,p,q"]
    for n, (p, q) in enumerate(values):
        lines.append(f"{n},{_fraction_str(xi)},{_fraction_str(p)},{_fraction_str(q)}")
    return "\n".join(lines) + "\n"


def run_polys(config):
    code = 0
    doc = {}
    files = {}
    pairs = polynomials.pair_sequence(config["n_max"])
    files["polys_table.csv"] = _polys_table_csv(pairs)
    doc["table_rows"] = config["n_max"]

    xi = None if config["xi"] is None else _parse_fraction(config["xi"])
    if xi is not None:
        values = polynomials.pair_values_sequence(xi, config["n_max"])
        files["polys_eval.csv"] = _polys_eval_csv(xi, values)

    if config["check_identities"]:
        order = config["order"]
        identities = {
            "series_P": polynomials.check_identity_P(order),
            "series_Q": polynomials.check_identity_Q(order),
            "product_repr_P": polynomials.check_repr_P(order, order),
            "product_repr_Q": polynomials.check_repr_Q(order, order),
        }
        doc["identities"] = identities
        if not all(identities.values()):
            code = CLAIM_EXIT

    if config["growth"]:
        if xi is None:
            raise UsageError("--growth needs --xi")
        try:
            report = polynomials.growth_bounds_report(xi, config["n_max"])
        except ValueError as exc:
            raise UsageError(f"--growth: {exc}") from exc
        doc["growth"] = report.to_dict()
        if not (report.lower_linear_ok and report.cumulative_identity_ok):
            code = CLAIM_EXIT
        if report.cube_bound_ok is False:
            code = CLAIM_EXIT

    if config["q_limit"]:
        if xi is None:
            raise UsageError("--q-limit needs --xi")
        try:
            result = polynomials.q_limit(xi, tol=config["q_limit_tol"])
        except ValueError as exc:
            raise UsageError(f"--q-limit: {exc}") from exc
        except polynomials.QLimitError as exc:
            doc["q_limit"] = {"error": {"class": type(exc).__name__, "message": str(exc),
                                        "n_reached": exc.n_reached}}
            return CLAIM_EXIT, doc, files
        doc["q_limit"] = {
            "value": result.value,
            "n_terms": result.n_terms,
            "monotone_ok": result.monotone_ok,
            "above_one_ok": result.above_one_ok,
            "upper_bound": result.upper_bound,
            "within_bound": result.within_bound,
        }
        if not (result.monotone_ok and result.above_one_ok and result.within_bound):
            code = CLAIM_EXIT
    return code, doc, files


# -- classify ------------------------------------------------------------------

def run_classify(config):
    if config["model"] not in ("half-line", "sym-line"):
        raise UsageError("classify supports --model half-line or sym-line")
    report = boundary.classify_model(_model_spec(config))
    doc = {"report": report.to_dict()}
    files = {"boundary_curves.csv": boundary.boundary_curves_csv(report)}
    return (0 if report.hard_expectations_ok else CLAIM_EXIT), doc, files


# -- walk ----------------------------------------------------------------------

def _walk_csv(check):
    lines = ["x,y,exact_p,empirical_p,n_exits,z_score"]
    for x, y, p, emp, n, z in check.rows:
        lines.append(f"{x},{y},{p!r},{emp!r},{n},{z!r}")
    return "\n".join(lines) + "\n"


def run_walk(config):
    graph = _model_spec(config).build()
    kernel = walk.kernel_from_graph(graph)
    start = graph.index_of(config["start"])
    if not 0 <= start < graph.n_vertices:
        raise UsageError(f"start vertex {config['start']} is outside the truncation")
    try:
        stats = walk.simulate(kernel, start, config["steps"], config["trials"],
                              config["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check = walk.frequency_check(stats, kernel, sigma_band=config["sigma_band"],
                                 min_exits=config["min_exits"])
    doc = {
        "stats": stats.to_dict(),
        "frequency": {
            "rows": check.to_rows(),
            "sigma_band": check.sigma_band,
            "all_within_band": check.all_within_band,
        },
    }
    files = {"walk_frequencies.csv": _walk_csv(check)}
    return (0 if check.all_within_band else CLAIM_EXIT), doc, files


# -- embed -----------------------------------------------------------------------

def run_embed(config):
    n = config["N"]
    try:
        gmap = embedding.dyadic_pair(1.0, n, wrong_psi=config["wrong_psi"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cert = embedding.check_compatible(gmap, test_vectors=config["trials"],
                                      seed=config["seed"])
    doc = {"certificate": cert.to_dict()}
    warnings = []
    if n < 4:
        warnings.append(f"truncation depth {n} leaves few interior vertices; "
                        "residual evidence is weak")
    code = 0 if cert.passed else CLAIM_EXIT
    if cert.passed:
        gmap = gmap.with_certificate(cert)
        w = embedding.dirichlet_monopole(gmap.target)
        tw, resid = embedding.transport_monopole(gmap, w)
        doc["monopole_transport"] = {
            "source_residual": resid,
            "target_energy": energy_of(w),
            "transported_energy": energy_of(tw),
            "passed": resid <= 1e-8,
        }
        if resid > 1e-8:
            code = CLAIM_EXIT
        if n >= 3:
            tree_h = embedding.tree_harmonic_direct(1.0, n)
            doc["tree_harmonic"] = tree_h.to_dict()
        else:
            warnings.append("tree harmonic evidence needs depth >= 3; skipped")
    doc["warnings"] = warnings
    return code, doc, {}


# -- energy ----------------------------------------------------------------------

def run_energy(config):
    graph = _read_file(config["graph"], graphs.read_graph)
    u = _read_file(config["vector"], lambda text: read_vector(graph, text))
    lap = apply_laplacian(u)
    doc = {
        "energy": energy_of(u),
        "n_vertices": graph.n_vertices,
        "n_edges": len(graph.edges),
    }
    files = {
        "laplacian.csv": write_vector(lap),
        "graph_echo.txt": graphs.write_graph(graph),
    }
    return 0, doc, files


# -- resolvent ---------------------------------------------------------------------

def run_resolvent(config):
    if config.get("graph"):
        graph = _read_file(config["graph"], graphs.read_graph)
        x = config["x"]
    else:
        graph = _model_spec(config).build()
        x = graph.index_of(config["x"])
    if not 0 <= x < graph.n_vertices:
        raise UsageError(f"vertex {config['x']} is outside the truncation")
    try:
        result = boundary.resolvent_delta(graph, x, tol=config["tol"])
    except SolverError as exc:
        error = {"class": type(exc).__name__, "message": str(exc)}
        return CLAIM_EXIT, {"error": error, "contract_ok": False}, {}
    ok = (result.residual_inf <= config["tol"] and result.contractive_ok
          and result.punctured_residual_inf <= 1e-9)
    doc = {"resolvent": result.to_dict(), "contract_ok": ok}
    files = {"resolvent_u.csv": write_vector(result.vector)}
    return (0 if ok else CLAIM_EXIT), doc, files


_RUNNERS = {
    "polys": run_polys,
    "classify": run_classify,
    "walk": run_walk,
    "embed": run_embed,
    "energy": run_energy,
    "resolvent": run_resolvent,
}


def execute(config):
    """Run one resolved configuration; returns (exit_code, stdout_text, files)."""
    runner = _RUNNERS[config["command"]]
    code, doc, files = runner(config)
    doc["config"] = config
    doc["exit_code"] = code
    return code, _json_text(doc), files


def _build_parser():
    parser = _Parser(prog="resistnet",
                     description="energy-space analysis of weighted resistor networks")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out-dir", default=None,
                        help="also write CSV artifacts into this directory")

    p = sub.add_parser("polys", parents=[shared],
                       help="polynomial tables, identities, growth bounds")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--xi", type=str, default=None, help="rational, e.g. 1/2")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--check-identities", action="store_true")
    p.add_argument("--growth", action="store_true")
    p.add_argument("--q-limit", action="store_true")
    p.add_argument("--q-limit-tol", type=float, default=1e-10)

    c = sub.add_parser("classify", parents=[shared], help="harmonic/defect dimensions for a model")
    c.add_argument("--model", required=True, choices=["half-line", "sym-line"])
    c.add_argument("--M", type=float, required=True)
    c.add_argument("--N", type=int, default=100)

    w = sub.add_parser("walk", parents=[shared], help="simulate the conductance random walk")
    w.add_argument("--model", required=True, choices=list(_MODEL_NAMES))
    w.add_argument("--M", type=float, default=None)
    w.add_argument("--A", type=float, default=None)
    w.add_argument("--B", type=float, default=None)
    w.add_argument("--c-const", type=float, default=1.0)
    w.add_argument("--N", type=int, default=50)
    w.add_argument("--start", type=int, required=True)
    w.add_argument("--steps", type=int, default=1)
    w.add_argument("--trials", type=int, default=1000000)
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--sigma-band", type=float, default=4.0)
    w.add_argument("--min-exits", type=int, default=1000)

    e = sub.add_parser("embed", parents=[shared], help="certify the tree-to-half-line pair")
    e.add_argument("--N", type=int, default=8)
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--wrong-psi", action="store_true",
                   help="use the broken weight to demonstrate failure")

    g = sub.add_parser("energy", parents=[shared], help="energy and Laplacian of a serialized vector")
    g.add_argument("--graph", required=True)
    g.add_argument("--vector", required=True)

    r = sub.add_parser("resolvent", parents=[shared], help="solve (I + Lap) u = delta_x")
    r.add_argument("--model", default=None, choices=list(_MODEL_NAMES))
    r.add_argument("--M", type=float, default=None)
    r.add_argument("--A", type=float, default=None)
    r.add_argument("--B", type=float, default=None)
    r.add_argument("--c-const", type=float, default=1.0)
    r.add_argument("--N", type=int, default=20)
    r.add_argument("--graph", default=None)
    r.add_argument("--x", type=int, required=True)
    r.add_argument("--tol", type=float, default=1e-10)

    rp = sub.add_parser("replay", parents=[shared], help="rerun a command from its config echo")
    rp.add_argument("config_file")
    return parser


def _config_from_args(args):
    config = {"command": args.command}
    skip = {"command", "out_dir", "config_file"}
    for key, value in vars(args).items():
        if key in skip:
            continue
        config[key] = value
    if "seed" in config:
        config["seed"] = _default_seed(config["seed"])
    return config


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out_dir

    try:
        if args.command == "replay":
            loaded = _read_file(args.config_file, json.loads)
            config = loaded.get("config", loaded) if isinstance(loaded, dict) else None
            if not isinstance(config, dict) or config.get("command") not in _RUNNERS:
                print("replay: file carries no runnable config", file=sys.stderr)
                return USAGE_EXIT
        else:
            config = _config_from_args(args)
        code, text, files = execute(config)
    except UsageError as exc:
        print(f"resistnet: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    return code


if __name__ == "__main__":
    sys.exit(main())
