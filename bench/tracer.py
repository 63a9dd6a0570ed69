"""Tracing of resistnet's layers, done entirely from the benchmark's side.

The tracer wraps public functions of the package at every name a caller
looks them up by: modules import each other with ``from .linsolve import
solve_psd_system``, so replacing only the attribute of the defining
module would miss those calls. Every module of the package is scanned for
attributes that are the original function object and each one is swapped
for the wrapper; ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent). A layer's self time
is the span duration minus the time covered by its child spans and minus
the benchmark's own bookkeeping done while the span was open. Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc

PACKAGE_MODULES = (
    "resistnet", "resistnet.graphs", "resistnet.energy", "resistnet.linsolve",
    "resistnet.polynomials", "resistnet.boundary", "resistnet.walk",
    "resistnet.embedding", "resistnet.cli",
)


def _fraction_bits(values):
    best = 0
    for v in values:
        num = getattr(v, "numerator", None)
        if num is None:
            continue
        best = max(best, abs(num).bit_length(), v.denominator.bit_length())
    return best


def _int_bits(values):
    return max((abs(int(c)).bit_length() for c in values), default=0)


# -- counters: (args, kwargs, result, error) -> {metric: increment} -------------
# "max" metrics keep the largest value seen in a pass; all others add up.

def _count_build(args, kwargs, result, error):
    return {} if error else {"graphs.vertices": result.n_vertices}


def _count_linsolve(args, kwargs, result, error):
    rhs = args[1] if len(args) > 1 else kwargs.get("rhs_exact", ())
    out = {"linsolve.calls": 1, "linsolve.unknowns": len(rhs)}
    if error:
        out["linsolve.failures"] = 1
        return out
    x_exact = result[1]
    if x_exact is None:
        out["linsolve.float_calls"] = 1
    else:
        out["linsolve.exact_calls"] = 1
        out["linsolve.max_bits"] = _fraction_bits(x_exact)
    return out


def _count_value_sequence(args, kwargs, result, error):
    if error:
        return {}
    return {"polynomials.steps": len(result) - 1,
            "polynomials.max_bits": _fraction_bits(result[-1])}


def _count_pair_sequence(args, kwargs, result, error):
    if error:
        return {}
    last = result[-1]
    return {"polynomials.steps": len(result) - 1,
            "polynomials.max_bits": max(_int_bits(last.p.coeffs),
                                        _int_bits(last.q.coeffs))}


def _count_matrix_pair(args, kwargs, result, error):
    if error:
        return {}
    n = args[0] if args else kwargs["n"]
    return {"polynomials.steps": n, "polynomials.max_bits": _fraction_bits(result)}


def _count_q_limit(args, kwargs, result, error):
    return {} if error else {"polynomials.steps": result.n_terms}


def _count_laplacian(args, kwargs, result, error):
    return {"energy.laplacian_calls": 1}


def _count_certify(args, kwargs, result, error):
    return {} if error else {"embedding.certify_vectors": result.n_vectors}


def _count_simulate(args, kwargs, result, error):
    return {} if error else {"walk.transitions": result.steps * result.trials}


def _count_execute(args, kwargs, result, error):
    if error:
        return {}
    code, text, files = result
    size = len(text.encode()) + sum(len(v.encode()) for v in files.values())
    return {"cli.output_bytes": size, "cli.claim_exits": int(code == 2)}


MAX_METRICS = {"linsolve.max_bits", "polynomials.max_bits", "walk.simulate_peak_mb"}

# (module, function) -> (self-time metric, counter or None)
TRACED = {
    ("resistnet.graphs", "build_half_line"): ("graphs.build_s", _count_build),
    ("resistnet.graphs", "build_sym_line"): ("graphs.build_s", _count_build),
    ("resistnet.graphs", "build_ab_line"): ("graphs.build_s", _count_build),
    ("resistnet.graphs", "build_dyadic_tree"): ("graphs.build_s", _count_build),
    ("resistnet.graphs", "path_graph"): ("graphs.build_s", _count_build),
    ("resistnet.embedding", "doubling_half_line"): ("graphs.build_s", _count_build),
    ("resistnet.graphs", "read_graph"): ("graphs.io_s", None),
    ("resistnet.graphs", "write_graph"): ("graphs.io_s", None),
    ("resistnet.energy", "read_vector"): ("energy.io_s", None),
    ("resistnet.energy", "write_vector"): ("energy.io_s", None),
    ("resistnet.linsolve", "solve_psd_system"): ("linsolve.solve_s", _count_linsolve),
    ("resistnet.energy", "solve_dipole"): ("energy.assembly_s", None),
    ("resistnet.energy", "apply_laplacian"): ("energy.laplacian_s", _count_laplacian),
    ("resistnet.boundary", "resolvent_delta"): ("boundary.resolvent_s", None),
    ("resistnet.embedding", "dirichlet_monopole"): ("embedding.solve_s", None),
    ("resistnet.embedding", "tree_harmonic_direct"): ("embedding.solve_s", None),
    ("resistnet.polynomials", "pair_values_sequence"):
        ("polynomials.recursion_s", _count_value_sequence),
    ("resistnet.polynomials", "pair_sequence"):
        ("polynomials.recursion_s", _count_pair_sequence),
    ("resistnet.polynomials", "matrix_product_pair"):
        ("polynomials.recursion_s", _count_matrix_pair),
    ("resistnet.polynomials", "q_limit"): ("polynomials.recursion_s", _count_q_limit),
    ("resistnet.polynomials", "genfunc_P"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "genfunc_Q"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "identity_P_holds"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "identity_Q_holds"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "check_identity_P"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "check_identity_Q"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "check_repr_P"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "check_repr_Q"): ("polynomials.identity_s", None),
    ("resistnet.polynomials", "growth_bounds_report"): ("polynomials.growth_s", None),
    ("resistnet.boundary", "classify_model"): ("boundary.classify_s", None),
    ("resistnet.boundary", "build_harmonic_zplus"): ("boundary.classify_s", None),
    ("resistnet.boundary", "build_harmonic_zline"): ("boundary.classify_s", None),
    ("resistnet.boundary", "build_deficiency_zplus"): ("boundary.classify_s", None),
    ("resistnet.boundary", "build_deficiency_zline"): ("boundary.classify_s", None),
    ("resistnet.boundary", "boundary_curves_csv"): ("boundary.classify_s", None),
    ("resistnet.embedding", "check_compatible"): ("embedding.certify_s", _count_certify),
    ("resistnet.embedding", "pullback"): ("embedding.certify_s", None),
    ("resistnet.embedding", "transport_monopole"): ("embedding.certify_s", None),
    ("resistnet.embedding", "dyadic_pair"): ("embedding.certify_s", None),
    ("resistnet.walk", "kernel_from_graph"): ("walk.kernel_s", None),
    ("resistnet.walk", "simulate"): ("walk.simulate_s", _count_simulate),
    ("resistnet.walk", "frequency_check"): ("walk.check_s", None),
    ("resistnet.cli", "execute"): ("cli.self_s", _count_execute),
}

# Functions whose peak Python-heap allocation is measured with tracemalloc.
PEAK_MEMORY = {("resistnet.walk", "simulate"): "walk.simulate_peak_mb"}

LAYER_METRICS = sorted(
    {metric for metric, _ in TRACED.values()}
    | set(PEAK_MEMORY.values())
    | {"graphs.vertices", "linsolve.calls", "linsolve.unknowns",
       "linsolve.exact_calls", "linsolve.float_calls", "linsolve.failures",
       "linsolve.max_bits", "energy.laplacian_calls", "polynomials.steps",
       "polynomials.max_bits", "embedding.certify_vectors", "walk.transitions",
       "cli.output_bytes", "cli.claim_exits"})


class Span:
    __slots__ = ("id", "parent", "name", "metric", "start", "end", "child_s",
                 "excluded_s", "error", "counts")

    def __init__(self, span_id, parent, name, metric=None):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.metric = metric
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.excluded_s = 0.0
        self.error = None
        self.counts = None

    @property
    def self_s(self):
        return (self.end - self.start) - self.child_s - self.excluded_s

    def to_dict(self):
        return {"id": self.id, "parent": self.parent.id if self.parent else None,
                "name": self.name, "metric": self.metric,
                "start": self.start, "end": self.end,
                "self_s": self.self_s, "error": self.error, "counts": self.counts}


class Tracer:
    """Span recorder; wrappers pass straight through while disabled."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.missing = []
        self._stack = []
        self._patched = []

    # -- wrapping ---------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        for (mod_name, fn_name), (metric, counter) in TRACED.items():
            original = getattr(importlib.import_module(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            peak = PEAK_MEMORY.get((mod_name, fn_name))
            wrapper = self._wrap(f"{mod_name[len('resistnet.'):]}.{fn_name}",
                                 metric, original, counter, peak)
            for module in modules:
                names = [k for k, v in vars(module).items() if v is original]
                for name in names:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name, metric, fn, counter, peak_metric):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name, metric)
            if peak_metric:
                tracemalloc.start()
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer.close(span)
                book_start = time.perf_counter()
                span.counts = {}
                if peak_metric:
                    span.counts[peak_metric] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                if counter is not None:
                    span.counts.update(counter(args, kwargs, result, error))
                if span.parent is not None:
                    span.parent.excluded_s += time.perf_counter() - book_start

        return traced

    # -- spans --------------------------------------------------------------------

    def open(self, name, metric=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, metric)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def layer_totals(self, spans):
        """Per-layer metrics summed over spans (self time into each metric)."""
        totals = {m: 0.0 for m in LAYER_METRICS}
        for span in spans:
            if span.metric is not None:
                totals[span.metric] += span.self_s
            for key, value in (span.counts or {}).items():
                if key in MAX_METRICS:
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
