"""Spans and counts around the calls into each `seqcs` module, from outside.

`Tracer.install()` replaces the listed functions and methods, wherever a
`seqcs` module binds them, by wrappers that count every call and time it.
Calls of a "span" target are kept one by one in memory (name, start, end,
parent span, job id).  Calls of a "hot" target, the small field and subspace
operations made millions of times, are summed per enclosing span instead, so
memory stays bounded; a hot call made inside a hot call of its own layer is
counted but not timed, its time stays with the outer call of that layer.

A frame's self time is its duration minus that of the frames it directly
encloses; a layer's self time sums its frames.  `per_layer()` derives the
benchmark's per-layer metrics from the spans and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("field", "systems", "complexity", "covering", "reduction", "analysis", "phi_km", "cli")

# (layer, attribute path, kind)
TARGETS = [
    *[("field", name, "hot") for name in (
        "SpanBasis.reduce", "SpanBasis.contains", "SpanBasis.extended", "span_basis", "rref", "rank",
        "vec_mat", "mat_mul", "in_span", "in_affine_span", "tensor_power", "completing_transform",
        "solve_right", "mat_inverse")],
    *[("systems", name, "span") for name in (
        "validate", "load_system", "system_flags", "normalize_translation_invariant", "associated_set",
        "change_of_variables", "is_translation_invariant")],
    ("systems", "LinearSystem.digest", "hot"),
    *[("complexity", name, "span") for name in (
        "complexity_report", "cs_complexity_at", "admissible_cover", "_admissible_pool",
        "sequential_witness", "verify_witness", "tensor_criterion", "WitnessCertificate.load")],
    *[("covering", name, "span") for name in (
        "min_cover_excluding", "_span_candidates", "exact_set_cover", "verify_cover", "enumerate_hyperplanes")],
    *[("covering", name, "hot") for name in (
        "AffineSubspace.contains", "AffineSubspace.make", "AffineSubspace.from_points",
        "AffineSubspace.from_hyperplane")],
    *[("reduction", name, "span") for name in (
        "build_chain", "cs_step", "numeric_step_check", "merged_cover_identities")],
    *[("analysis", name, "span") for name in (
        "get_evaluator", "LambdaEvaluator.__init__", "LambdaEvaluator.value", "lambda_average",
        "gowers_norm", "gowers_norm_direct", "gvn_check", "_draw_tuple", "random_one_bounded",
        "character_table", "quadratic_table", "FunctionTable.from_json", "shift_matrix")],
    *[("phi_km", name, "span") for name in (
        "phi_system", "s_km_points", "phi_witness", "phi_witness_certificate", "counterexample_family")],
    ("cli", "main", "span"),
    ("cli", "_emit", "span"),
]

# function tables built for the norm checks; analysis.tables_s times the outermost of these
TABLE_BUILDERS = {"analysis._draw_tuple", "analysis.random_one_bounded", "analysis.character_table",
                  "analysis.quadratic_table", "analysis.FunctionTable.from_json", "phi_km.counterexample_family"}


def _observe_extended(counts, args, result):
    if result is not args[0]:
        counts["field.extend_grew"] += 1


def _observe_cover(counts, args, result):
    if result is not None:
        counts["complexity.cover_found"] += 1


def _observe_cs_complexity(counts, args, result):
    if result[1] is not None:
        counts["complexity.cover_found"] += 1


def _observe_step(counts, args, result):
    counts["reduction.forms_out"] += result.output_system.r


def _observe_lambda(counts, args, result):
    counts["analysis.lambda_points"] += args[0].total


OBSERVERS = {
    "field.SpanBasis.extended": _observe_extended,
    "complexity.admissible_cover": _observe_cover,
    "complexity.cs_complexity_at": _observe_cs_complexity,
    "reduction.cs_step": _observe_step,
    "analysis.LambdaEvaluator.value": _observe_lambda,
}


class _Frame:
    __slots__ = ("name", "layer", "hot", "id", "owner", "child_s", "hot_agg")

    def __init__(self, name, layer, hot, span_id, owner):
        self.name = name
        self.layer = layer
        self.hot = hot
        self.id = span_id
        self.owner = owner  # innermost enclosing span frame
        self.child_s = 0.0
        self.hot_agg = None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.loose_hot: dict = {}  # hot calls with no enclosing span
        self.missing: list[str] = []  # targets not found in this version of seqcs
        self._next_id = 0
        self.origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"seqcs.{layer}") for layer in LAYERS}
        namespaces = [*modules.values(), importlib.import_module("seqcs")]
        for layer, path, kind in TARGETS:
            owner = modules[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__.get(attr) if outer else getattr(owner, attr, None)
            if raw is None:
                self.missing.append(f"{layer}.{path}")  # renamed or removed: its metrics read zero
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            name = f"{layer}.{path}"
            wrapped = self._wrap(fn, name, layer, kind == "hot", OBSERVERS.get(name))
            if outer:
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            else:
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)

    def _wrap(self, fn, name, layer, hot, observe):
        tracer = self
        counts = self.counts
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            counts[name] += 1
            top = stack[-1] if stack else None
            if hot and top is not None and top.hot and top.layer == layer:
                result = fn(*args, **kwargs)
            else:
                owner = None if top is None else (top if not top.hot else top.owner)
                span_id = None
                if not hot:
                    span_id = tracer._next_id
                    tracer._next_id += 1
                frame = _Frame(name, layer, hot, span_id, owner)
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer._close(frame, top, start, end)
            if observe is not None:
                observe(counts, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _close(self, frame: _Frame, parent: _Frame | None, start: float, end: float) -> None:
        dur = end - start
        if parent is not None:
            parent.child_s += dur
        if frame.hot:
            agg_host = frame.owner.hot_agg if frame.owner is not None else None
            if agg_host is None:
                if frame.owner is not None:
                    frame.owner.hot_agg = agg_host = {}
                else:
                    agg_host = self.loose_hot.setdefault(self.job, {})
            entry = agg_host.setdefault(frame.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame.child_s
        else:
            parent_id = frame.owner.id if frame.owner is not None else None
            self.spans.append((frame.id, parent_id, self.job, frame.name, start - self.origin,
                               end - self.origin, frame.child_s, frame.hot_agg))

    # -- derivation ---------------------------------------------------------

    def per_layer(self, passes: int, report_bytes: float) -> dict:
        """Per-layer metrics per traced pass, from the kept spans and counts."""
        c = self.counts
        by_id = {s[0]: s for s in self.spans}
        self_s = defaultdict(float)
        incl = defaultdict(float)  # inclusive time of outermost spans per name
        for _id, parent, _job, name, start, end, child_s, hot_agg in self.spans:
            self_s[name.split(".", 1)[0]] += end - start - child_s
            if not self._inside(by_id, parent, {name}):
                incl[name] += end - start
            for hname, (_n, _incl, hself) in (hot_agg or {}).items():
                self_s[hname.split(".", 1)[0]] += hself
        for agg in self.loose_hot.values():
            for hname, (_n, _incl, hself) in agg.items():
                self_s[hname.split(".", 1)[0]] += hself

        def spans_named(name):
            return [s for s in self.spans if s[3] == name]

        step_verify = sum(s[5] - s[4] for s in spans_named("complexity.verify_witness")
                          if s[1] is not None and by_id[s[1]][3] == "reduction.cs_step")
        set_cover_in_pool = sum(s[5] - s[4] for s in spans_named("covering.exact_set_cover")
                                if s[1] is not None and by_id[s[1]][3] == "covering.min_cover_excluding")
        pool = incl["covering.min_cover_excluding"] - set_cover_in_pool
        tables = sum(s[5] - s[4] for s in self.spans
                     if s[3] in TABLE_BUILDERS and not self._inside(by_id, s[1], TABLE_BUILDERS))

        def ratio(num, den):
            return num / den if den else 0.0

        cover_calls = c["complexity.admissible_cover"] + c["complexity.cs_complexity_at"]
        get_calls = c["analysis.get_evaluator"]
        lambda_s = incl["analysis.LambdaEvaluator.value"]
        # totals over all traced passes, reported per pass
        totals = {
            "field.span_ops": (c["field.SpanBasis.reduce"] + c["field.SpanBasis.contains"]
                               + c["field.SpanBasis.extended"], "count"),
            "field.rref_calls": (c["field.rref"], "count"),
            "field.vec_mat_calls": (c["field.vec_mat"], "count"),
            "systems.calls": (sum(v for k, v in c.items() if k.startswith("systems.")), "count"),
            "complexity.cover_calls": (cover_calls, "count"),
            "complexity.witness_s": (incl["complexity.sequential_witness"], "s"),
            "complexity.tensor_s": (incl["complexity.tensor_criterion"], "s"),
            "complexity.verify_calls": (c["complexity.verify_witness"], "count"),
            "complexity.verify_s": (incl["complexity.verify_witness"], "s"),
            "covering.pool_s": (pool, "s"),
            "covering.contains_calls": (c["covering.AffineSubspace.contains"], "count"),
            "covering.make_calls": (c["covering.AffineSubspace.make"], "count"),
            "covering.verify_s": (incl["covering.verify_cover"], "s"),
            "covering.set_cover_calls": (c["covering.exact_set_cover"], "count"),
            "covering.set_cover_s": (incl["covering.exact_set_cover"], "s"),
            "reduction.steps": (c["reduction.cs_step"], "count"),
            "reduction.step_s": (incl["reduction.cs_step"], "s"),
            "reduction.step_verify_s": (step_verify, "s"),
            "reduction.forms_out": (c["reduction.forms_out"], "count"),
            "reduction.numeric_s": (incl["reduction.numeric_step_check"], "s"),
            "analysis.lambda_calls": (c["analysis.LambdaEvaluator.value"], "count"),
            "analysis.lambda_points": (c["analysis.lambda_points"], "count"),
            "analysis.lambda_s": (lambda_s, "s"),
            "analysis.gowers_calls": (c["analysis.gowers_norm"], "count"),
            "analysis.gowers_s": (incl["analysis.gowers_norm"], "s"),
            "analysis.tables_s": (tables, "s"),
            "phi_km.calls": (sum(v for k, v in c.items() if k.startswith("phi_km.")), "count"),
            **{f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS},
        }
        out = {name: {"value": value / passes, "unit": unit} for name, (value, unit) in totals.items()}
        ratios = {
            "field.extend_grew_frac": ratio(c["field.extend_grew"], c["field.SpanBasis.extended"]),
            "complexity.cover_found_frac": ratio(c["complexity.cover_found"], cover_calls),
            "analysis.evaluator_hit_frac": ratio(get_calls - c["analysis.LambdaEvaluator.__init__"], get_calls),
        }
        out.update({name: {"value": value, "unit": "ratio"} for name, value in ratios.items()})
        out["analysis.lambda_points_per_s"] = {"value": ratio(c["analysis.lambda_points"], lambda_s), "unit": "1/s"}
        out["cli.report_bytes"] = {"value": report_bytes, "unit": "B"}
        return dict(sorted(out.items()))

    @staticmethod
    def _inside(by_id, parent, names) -> bool:
        while parent is not None:
            span = by_id[parent]
            if span[3] in names:
                return True
            parent = span[1]
        return False

    def dump(self, path) -> None:
        columns = ("id", "parent", "job", "name", "start_s", "end_s", "child_s", "hot")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": columns, "counts": self.counts,
                       "loose_hot": {str(job): agg for job, agg in self.loose_hot.items()},
                       "spans": self.spans}, fh)
