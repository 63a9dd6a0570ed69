"""Command-line front end.

Every command resolves its full configuration (defaults included), runs,
and emits a single JSON document on stdout whose "config" member echoes
that configuration; `resistnet replay <file>` reruns a command from such
an echo and reproduces the output byte for byte. CSV artifacts are not part
of the JSON: they are written as files when --out-dir is given.

Exit codes: 0 success, 2 a checked claim or a solve failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import boundary, embedding, graphs, polynomials, walk
from .energy import apply_laplacian, energy as energy_of, read_vector, write_vector
from .linsolve import SolverError

USAGE_EXIT = 64
CLAIM_EXIT = 2

# polys keeps every coefficient of every (p_n, q_n) for its table, so memory
# grows like n_max**4: at this limit the command peaks near 76 MB RSS. It
# also caps --order, whose identity checks take about 9 s at order 100
POLYS_N_MAX = 100

# classify's exact rows grow like n**2 bits, so its time grows like N**3: at
# this limit --M 2 takes 4-7 s at 44 MB peak RSS on a 2-CPU x86-64 host (an
# odd denominator in 1/M, as at --M 1.5, far longer)
CLASSIFY_N_MAX = 4096

# classify's model names -> the line families boundary.classify_model takes
_CLASSIFIED = {"half-line": graphs.HALF_LINE_GEOM, "sym-line": graphs.LINE_GEOM_SYM}

# model name -> the graph its family builder makes from a config
_MODELS = {
    "half-line": lambda config: graphs.build_half_line(config["M"], config["N"]),
    "sym-line": lambda config: graphs.build_sym_line(config["M"], config["N"]),
    "ab-line": lambda config: graphs.build_ab_line(config["A"], config["B"], config["N"]),
    "tree": lambda config: graphs.build_dyadic_tree(config["c_const"], config["N"]),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


class _ReplayParser(_Parser):
    """A parser for replayed configs: a value it rejects is a usage error."""

    def error(self, message):
        raise UsageError(f"replay: {message}")


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
    """json.dumps(doc, sort_keys=True, indent=2) + "\n", with each container of
    scalars encoded in C.

    json.dumps runs its pure-Python encoder whenever it indents. Here only the
    walk over nested containers is Python: a container holding no container
    goes to the C encoder, whose item separator carries the line break and
    the indent, and the line breaks at its brackets are added to its text.
    """
    parts = []
    _json_parts(doc, 0, parts)
    return "".join(parts) + "\n"


_CONTAINERS = (dict, list, tuple)


@cache
def _json_flat(depth):
    """The function from a value whose items sit at depth + 1 to its sorted-keys
    JSON text: one C encoder kept per depth, or json.JSONEncoder.encode, which
    makes a new encoder per call, where the C encoder is missing."""
    separator = ",\n" + "  " * (depth + 1)
    encoder = json.JSONEncoder(sort_keys=True, separators=(separator, ": "))
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    encode = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, None, ": ", separator,
        True, False, True)     # sort_keys, skipkeys, allow_nan as in json.dumps
    return lambda value: "".join(encode(value, 0))


def _json_key(key):
    """'"key": ', as the encoder writes a str key or converts any other."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key) + ": "
    return _json_flat(0)({key: None})[1:-len("null}")]


def _json_parts(value, depth, parts):
    """Append the indented JSON text of value, nested depth levels deep, to parts."""
    if not isinstance(value, _CONTAINERS) or not value:     # a scalar, [] or {}
        parts.append(_json_flat(depth)(value))
        return
    is_dict = isinstance(value, dict)
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    item_types = set(map(type, value.values() if is_dict else value))
    if not any(issubclass(t, _CONTAINERS) for t in item_types):
        text = _json_flat(depth)(value)
        parts.append(text[0] + inner + text[1:-1] + outer + text[-1])
        return
    parts.append("{" if is_dict else "[")
    separator = inner
    for item in sorted(value.items()) if is_dict else value:
        if is_dict:
            key, item = item
            parts.append(separator + _json_key(key))
        else:
            parts.append(separator)
        separator = "," + inner
        _json_parts(item, depth + 1, parts)
    parts.append(outer + ("}" if is_dict else "]"))


def _model_graph(config):
    """The graph of the config's model; an unknown model or bad parameters are usage errors."""
    if config["model"] not in _MODELS:
        raise UsageError(f"unknown model {config['model']!r}")
    try:
        return _MODELS[config["model"]](config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_file(path, parse):
    """parse(text) of a file named on the command line.

    A missing, unreadable or malformed file is a usage error, and so is one
    whose counts ask for more memory than there is (a graph header's vertex
    count far beyond the file's records).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except MemoryError as exc:
        raise UsageError(f"{path}: out of memory while loading it"
                         + (f" ({exc})" if str(exc) else "")) from exc


# -- polys --------------------------------------------------------------------

def _polys_table_csv(pairs):
    lines = ["n,p_coeffs,q_coeffs"]
    for pair in pairs[1:]:
        p = ";".join(map(str, pair.p.coeffs))
        q = ";".join(map(str, pair.q.coeffs))
        lines.append(f"{pair.n},{p},{q}")
    return "\n".join(lines) + "\n"


def _polys_eval_csv(xi, values):
    columns = (range(len(values)), [_fraction_str(xi)] * len(values),
               *([_fraction_str(f) for f in column] for column in zip(*values)))
    return "n,xi,p,q\n" + graphs.format_rows("%d,%s,%s,%s\n", columns)


def run_polys(config):
    code = 0
    doc = {}
    files = {}
    if not 0 <= config["n_max"] <= POLYS_N_MAX:
        raise UsageError(f"--n-max must be between 0 and {POLYS_N_MAX}")
    pairs = polynomials.pair_sequence(config["n_max"])
    files["polys_table.csv"] = _polys_table_csv(pairs)
    doc["table_rows"] = config["n_max"]

    xi = None if config["xi"] is None else _parse_fraction(config["xi"])
    if xi is not None:
        values = polynomials.pair_values_sequence(xi, config["n_max"])
        files["polys_eval.csv"] = _polys_eval_csv(xi, values)

    if config["check_identities"]:
        order = config["order"]
        if not 1 <= order <= POLYS_N_MAX:
            raise UsageError(f"--order must be between 1 and {POLYS_N_MAX}")
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
        doc["q_limit"] = graphs.record_dict(result, ("increment_max",))
        if not (result.monotone_ok and result.above_one_ok and result.within_bound):
            code = CLAIM_EXIT
    return code, doc, files


# -- classify ------------------------------------------------------------------

def run_classify(config):
    if config["model"] not in _CLASSIFIED:
        raise UsageError("classify supports --model half-line or sym-line")
    if config["N"] > CLASSIFY_N_MAX:
        raise UsageError(f"--N must be at most {CLASSIFY_N_MAX} (got {config['N']})")
    try:
        report = boundary.classify_model(_CLASSIFIED[config["model"]], config["M"], config["N"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {"report": report.to_dict()}
    files = {"boundary_curves.csv": boundary.boundary_curves_csv(report)}
    return (0 if report.hard_expectations_ok else CLAIM_EXIT), doc, files


# -- walk ----------------------------------------------------------------------

def _walk_csv(check):
    columns = list(zip(*check.rows)) or [()] * 6
    return ("x,y,exact_p,empirical_p,n_exits,z_score\n"
            + graphs.format_rows("%s,%s,%r,%r,%s,%r\n", columns))


def run_walk(config):
    if not 0 < config["sigma_band"] < float("inf"):
        raise UsageError(f"--sigma-band must be finite and > 0, not {config['sigma_band']}")
    if config["min_exits"] < 0:
        raise UsageError(f"--min-exits must be >= 0, not {config['min_exits']}")
    graph = _model_graph(config)
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
        "frequency": {**graphs.record_dict(check, ("min_exits",)),
                      "all_within_band": check.all_within_band},
    }
    files = {"walk_frequencies.csv": _walk_csv(check)}
    return (0 if check.all_within_band else CLAIM_EXIT), doc, files


# -- embed -----------------------------------------------------------------------

def run_embed(config):
    n = config["N"]
    try:
        gmap = embedding.dyadic_pair(1.0, n, wrong_psi=config["wrong_psi"])
        cert = embedding.check_compatible(gmap, test_vectors=config["trials"],
                                          seed=config["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
            tree_h = embedding.tree_harmonic_direct(gmap.source)
            doc["tree_harmonic"] = tree_h.to_dict()
        else:
            warnings.append("tree harmonic evidence needs depth >= 3; skipped")
    doc["warnings"] = warnings
    return code, doc, {}


# -- energy ----------------------------------------------------------------------

def run_energy(config):
    graph = _read_file(config["graph"], graphs.read_graph)
    u = _read_file(config["vector"], lambda text: read_vector(graph, text))
    with np.errstate(over="ignore", invalid="ignore"):
        lap = apply_laplacian(u)
        energy = energy_of(u)
    if not (np.isfinite(energy) and np.isfinite(lap.values).all()):
        raise UsageError(f"{config['vector']} on {config['graph']}: the energy or the "
                         "Laplacian leaves the float range")
    doc = {
        "energy": energy,
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
    }
    files = {
        "laplacian.csv": write_vector(lap),
        "graph_echo.txt": graphs.write_graph(graph),
    }
    return 0, doc, files


# -- resolvent ---------------------------------------------------------------------

def run_resolvent(config):
    if not 0 < config["tol"] < float("inf"):
        raise UsageError(f"--tol must be finite and > 0, not {config['tol']}")
    if config.get("graph"):
        graph = _read_file(config["graph"], graphs.read_graph)
        x = config["x"]
    else:
        graph = _model_graph(config)
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


def _build_parser(parser_class=_Parser):
    parser = parser_class(prog="resistnet",
                     description="energy-space analysis of weighted resistor networks")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices     # command name -> its parser
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
    c.add_argument("--model", required=True, choices=list(_CLASSIFIED))
    c.add_argument("--M", type=float, required=True)
    c.add_argument("--N", type=int, default=100)

    w = sub.add_parser("walk", parents=[shared], help="simulate the conductance random walk")
    w.add_argument("--model", required=True, choices=list(_MODELS))
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
    r.add_argument("--model", default=None, choices=list(_MODELS))
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


def _replay_config(config):
    """Parse a config echo as the command line it was resolved from.

    Every value goes through its option's own argparse type, choices and
    checks, and must come out as the value it was: a config the echo of its
    own run would not reproduce is a usage error, as are a key the command
    reads but the config lacks and a key the command does not have.
    """
    command = config["command"]
    parser = _build_parser(_ReplayParser)
    options = {action.dest: action for action in parser.commands[command]._actions
               if action.option_strings and action.dest not in ("help", "out_dir")}
    unknown = sorted(set(config) - set(options) - {"command"})
    if unknown:
        raise UsageError(f"replay: {command} has no key {unknown[0]!r}")
    argv = [command]
    for key, action in options.items():
        if key not in config:
            raise UsageError(f"replay: config lacks the key {key!r}")
        value = config[key]
        if action.nargs == 0:                   # a store_true switch
            if value is True:
                argv.append(action.option_strings[0])
        elif value is not None:
            argv.append(f"{action.option_strings[0]}={value}")
    parsed = _config_from_args(parser.parse_args(argv))
    for key, value in config.items():
        # "5" parses to 5: run only a config whose echo would read as it does
        if json.dumps(value) != json.dumps(parsed[key]):
            raise UsageError(f"replay: {key} is {json.dumps(value)}, but its option "
                             f"reads it as {json.dumps(parsed[key])}")
    return parsed


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out_dir

    try:
        if args.command == "replay":
            loaded = _read_file(args.config_file, json.loads)
            config = loaded.get("config", loaded) if isinstance(loaded, dict) else None
            if not (isinstance(config, dict) and isinstance(config.get("command"), str)
                    and config["command"] in _RUNNERS):
                print("replay: file carries no runnable config", file=sys.stderr)
                return USAGE_EXIT
            config = _replay_config(config)
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
