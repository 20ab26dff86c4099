"""Outside-in tracing of spinbott's eight layers.

`Tracer.install()` wraps each layer's public functions and arithmetic
operator methods at run time and rebinds every spinbott namespace that
holds a reference to them (for example `verify.adams_module_report` and
the suite-runner table), so nothing under src/ changes.  Each call leaves a
span (name, start, end, parent, op) in memory; `parts()` reduces the
spans to the per-layer metrics, `finish()` adds up those of several
processes, and `write_spans()` writes the spans at exit.

Self time is a span's duration minus the time its child spans cover.  The
bookkeeping of a span runs outside its own clock readings, so tracing cost
lands in the caller's self time and shows in `trace.overhead_ratio`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import workloads

LAYERS = ("rings", "quadforms", "clifford", "lambda_bott", "modules", "linalg", "verify", "cli")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__pow__", "__eq__")

# In `cli` only `main` is wrapped: its handlers, parser and JSON output are
# the work `cli.main.self_s` measures.
CLI_WRAPPED = ("main",)

SUITES = ("clifford", "spin-lift", "adams", "serre", "spheres", "symbols")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.{what}", unit, "lower") for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [
        ("linalg.mat_mul.calls", "count", "lower"),
        ("linalg.mat_mul.self_s", "s", "lower"),
        ("linalg.mat_mul.pairs", "count", "lower"),
        ("linalg.mat_mul.useful_ratio", "ratio", "higher"),
        ("linalg.solve.calls", "count", "lower"),
        ("linalg.solve.self_s", "s", "lower"),
        ("modules.tensor_power.self_s", "s", "lower"),
        ("modules.tensor_power.per_op", "count/op", "lower"),
        ("modules.tensor_power.dim_sum", "count", "lower"),
        ("modules.cycle_eigen_projectors.self_s", "s", "lower"),
        ("modules.isotypic_projectors.self_s", "s", "lower"),
        ("modules.morita_reduce.self_s", "s", "lower"),
        ("modules.sym_character.hit_ratio", "ratio", "higher"),
        ("rings.Cyclotomic.mul.calls", "count", "lower"),
        ("rings.Cyclotomic.mul.self_s", "s", "lower"),
        ("rings.Cyclotomic.descend.calls", "count", "lower"),
        ("rings.TruncatedPoly.mul.calls", "count", "lower"),
        ("rings.TruncatedPoly.mul.self_s", "s", "lower"),
        ("rings.TruncatedPoly.invert.calls", "count", "lower"),
        ("lambda_bott.LineExpr.mul.calls", "count", "lower"),
        ("lambda_bott.LineExpr.mul.self_s", "s", "lower"),
        ("lambda_bott.sphere_formula.self_s", "s", "lower"),
        ("lambda_bott.bott_cyclotomic.self_s", "s", "lower"),
        ("clifford.CliffordElement.mul.calls", "count", "lower"),
        ("clifford.CliffordElement.mul.self_s", "s", "lower"),
        ("clifford.CliffordElement.mul.term_pairs", "count", "lower"),
        ("clifford.inverse.dense_ratio", "ratio", "lower"),
        ("quadforms.hilbert_symbol.calls", "count", "lower"),
        ("quadforms.hilbert_symbol.self_s", "s", "lower"),
        ("quadforms.bw_class.primes_scanned", "count", "lower"),
        ("quadforms.square_free_part.self_s", "s", "lower"),
        ("verify.hilbert_oracle.hit_ratio", "ratio", "higher"),
    ]
    + [(f"verify.suite_s.{suite}", "s", "lower") for suite in SUITES]
    + [
        ("cli.main.self_s", "s", "lower"),
        ("cli.emit_bytes", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


# -- counts taken from the arguments at a boundary, before the span starts ----

def _count_mat_mul(tracer, args, kwargs):
    a, b = args[0], args[1]
    n, k, m = len(a), len(b), len(b[0])
    tracer.counts["linalg.mat_mul.pairs"] += n * k * m
    col_nnz = [sum(1 for row in a if row[t]) for t in range(k)]
    tracer.counts["linalg.mat_mul.useful"] += sum(
        c * sum(1 for x in b[t] if x) for t, c in enumerate(col_nnz))


def _count_clifford_mul(tracer, args, kwargs):
    a, b = args[0], args[1]
    other = len(b.coeffs) if hasattr(b, "coeffs") and hasattr(b, "form") else 1
    tracer.counts["clifford.CliffordElement.mul.term_pairs"] += len(a.coeffs) * other


def _count_bw_class(tracer, args, kwargs):
    bound = max(args[1] if len(args) > 1 else kwargs["prime_bound"], 2)
    if bound not in tracer.prime_counts:
        tracer.prime_counts[bound] = len(workloads.primes_upto(bound))
    tracer.counts["quadforms.bw_class.primes_scanned"] += tracer.prime_counts[bound]


def _count_tensor_power(tracer, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.counts["modules.tensor_power.dim_sum"] += args[0].dim ** k


def _count_oracle(tracer, args, kwargs):
    if args[2] != "inf":
        tracer.counts["verify.hilbert_oracle.finite_calls"] += 1


_BEFORE = {
    "linalg.mat_mul": _count_mat_mul,
    "clifford.CliffordElement.__mul__": _count_clifford_mul,
    "clifford.CliffordElement.__rmul__": _count_clifford_mul,
    "quadforms.bw_class": _count_bw_class,
    "modules.tensor_power": _count_tensor_power,
    "verify.hilbert_oracle": _count_oracle,
}


class Tracer:
    """Spans of one process, kept in parallel arrays until `write_spans`."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = bytearray()
        self.stack = [-1]
        self.op = -1  # id of the request in flight; spans of one request share it
        self.counts: Counter = Counter()
        self.prime_counts: dict = {}
        self.originals: dict = {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._name_ids.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        before = _BEFORE.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = len(tracer.name)
            tracer.name.append(idx)
            tracer.parent.append(tracer.stack[-1])
            tracer.op_of.append(tracer.op)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.error.append(0)
            tracer.stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.error[span] = 1
                raise
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.start[span] = t0
                tracer.end[span] = t1

        return traced

    def install(self) -> None:
        """Wrap every layer and rebind every spinbott reference to the wrapped callables."""
        mods = {layer: importlib.import_module(f"spinbott.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, mod, obj)
                elif _is_public_function(mod, attr, obj) and (
                        layer != "cli" or attr in CLI_WRAPPED):
                    self.originals[f"{layer}.{attr}"] = obj
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "spinbott" and not modname.startswith("spinbott."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, layer, mod, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            fn = member.__func__ if kind else member
            if not _defined_in(mod, fn):
                continue
            wrapped = self._wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # -- reduction -------------------------------------------------------------

    def parts(self, emit_bytes: int, oracle_growth: int) -> dict:
        """Every per-layer metric of `PER_LAYER` but `trace.overhead_ratio`, which
        needs an untraced run of the same round, as {name: value}; a ratio is
        kept as [numerator, denominator] so that `finish` can add up processes."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        total_ns: Counter = Counter()
        errors: Counter = Counter()
        solve_parents = set()
        solve_id = self._name_ids.get("linalg.solve")
        # a parent span starts, and so is numbered, before its children
        report_id = self._name_ids.get("modules.adams_module_report")
        tensor_id = self._name_ids.get("modules.tensor_power")
        in_report = bytearray(n)
        report_builds = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and (in_report[p] or self.name[p] == report_id):
                in_report[i] = 1
                report_builds += self.name[i] == tensor_id
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_ns[name] += dur - child[i]
            total_ns[name] += dur
            errors[name] += self.error[i]
            if self.name[i] == solve_id and self.parent[i] >= 0:
                solve_parents.add(self.parent[i])

        def count(*names):
            return sum(calls[x] for x in names)

        def secs(*names, table=self_ns):
            return sum(table[x] for x in names) / 1e9

        def ratio(num, den):
            return [num, den]

        out = {}
        for layer in LAYERS:
            mine = [x for x in calls if x.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = count(*mine)
            out[f"{layer}.self_s"] = secs(*mine)
            out[f"{layer}.errors"] = sum(errors[x] for x in mine)
        c = self.counts
        inverse_id = self._name_ids.get("clifford.CliffordElement.inverse")
        dense = sum(1 for p in solve_parents if self.name[p] == inverse_id)
        sym = self.originals["modules.sym_character"].cache_info()
        finite = c["verify.hilbert_oracle.finite_calls"]
        cyc = ("rings.Cyclotomic.__mul__", "rings.Cyclotomic.__rmul__")
        tp = ("rings.TruncatedPoly.__mul__", "rings.TruncatedPoly.__rmul__")
        le = ("lambda_bott.LineExpr.__mul__", "lambda_bott.LineExpr.__rmul__")
        cl = ("clifford.CliffordElement.__mul__", "clifford.CliffordElement.__rmul__")
        out.update({
            "linalg.mat_mul.calls": count("linalg.mat_mul"),
            "linalg.mat_mul.self_s": secs("linalg.mat_mul"),
            "linalg.mat_mul.pairs": c["linalg.mat_mul.pairs"],
            "linalg.mat_mul.useful_ratio": ratio(c["linalg.mat_mul.useful"],
                                                 c["linalg.mat_mul.pairs"]),
            "linalg.solve.calls": count("linalg.solve"),
            "linalg.solve.self_s": secs("linalg.solve"),
            "modules.tensor_power.self_s": secs("modules.tensor_power"),
            "modules.tensor_power.per_op": ratio(report_builds,
                                                 count("modules.adams_module_report")),
            "modules.tensor_power.dim_sum": c["modules.tensor_power.dim_sum"],
            "modules.cycle_eigen_projectors.self_s": secs("modules.cycle_eigen_projectors"),
            "modules.isotypic_projectors.self_s": secs("modules.isotypic_projectors"),
            "modules.morita_reduce.self_s": secs("modules.morita_reduce"),
            "modules.sym_character.hit_ratio": ratio(sym.hits, sym.hits + sym.misses),
            "rings.Cyclotomic.mul.calls": count(*cyc),
            "rings.Cyclotomic.mul.self_s": secs(*cyc),
            "rings.Cyclotomic.descend.calls": count("rings.Cyclotomic.descend"),
            "rings.TruncatedPoly.mul.calls": count(*tp),
            "rings.TruncatedPoly.mul.self_s": secs(*tp),
            "rings.TruncatedPoly.invert.calls": count("rings.TruncatedPoly.invert"),
            "lambda_bott.LineExpr.mul.calls": count(*le),
            "lambda_bott.LineExpr.mul.self_s": secs(*le),
            "lambda_bott.sphere_formula.self_s": secs("lambda_bott.sphere_formula"),
            "lambda_bott.bott_cyclotomic.self_s": secs("lambda_bott.bott_cyclotomic"),
            "clifford.CliffordElement.mul.calls": count(*cl),
            "clifford.CliffordElement.mul.self_s": secs(*cl),
            "clifford.CliffordElement.mul.term_pairs":
                c["clifford.CliffordElement.mul.term_pairs"],
            "clifford.inverse.dense_ratio": ratio(dense,
                                                  count("clifford.CliffordElement.inverse")),
            "quadforms.hilbert_symbol.calls": count("quadforms.hilbert_symbol"),
            "quadforms.hilbert_symbol.self_s": secs("quadforms.hilbert_symbol"),
            "quadforms.bw_class.primes_scanned": c["quadforms.bw_class.primes_scanned"],
            "quadforms.square_free_part.self_s": secs("quadforms.square_free_part"),
            "verify.hilbert_oracle.hit_ratio": ratio(finite - oracle_growth, finite),
            "cli.main.self_s": secs("cli.main"),
            "cli.emit_bytes": emit_bytes,
        })
        runners = {suite: f"verify.suite_{suite.replace('-', '_')}" for suite in SUITES}
        for suite, span in runners.items():
            out[f"verify.suite_s.{suite}"] = secs(span, table=total_ns)
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, op, name, start_ns, end_ns, error."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\terror\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op_of[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\t{self.error[i]}\n")


def finish(parts: list) -> dict:
    """The per-layer metrics of one or more traced processes, from their `parts`."""
    out = {}
    for name, value in parts[0].items():
        if isinstance(value, list):
            num = sum(p[name][0] for p in parts)
            den = sum(p[name][1] for p in parts)
            out[name] = num / den if den else 0.0  # a ratio with nothing to divide reads 0
        else:
            out[name] = sum(p[name] for p in parts)
    return out


def _defined_in(mod, fn) -> bool:
    """A plain function written in `mod`'s source (not generated, not a generator)."""
    return (inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__
            and not inspect.isgeneratorfunction(fn))


def _is_public_function(mod, attr: str, obj) -> bool:
    if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
        return False
    return _defined_in(mod, getattr(obj, "__wrapped__", obj))  # lru_cache keeps it there
