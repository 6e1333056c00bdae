"""Span tracing for the traced benchmark run, installed from outside the library.

``Tracer.install()`` replaces functions and methods of ``motzeta`` with
wrappers, at the name each caller looks up (a function imported into another
module is patched there too).  Each wrapped call records a span: name, start,
end, parent span and op index.  A span's self time is its duration minus the
time its child spans cover; spans are kept in memory and written out by the
parent when the run ends.

The scalar ring (``locring``) is called some 10^5 times per pass, so its
methods are "hot" targets: they record no span, only call counts and time,
and a locring call made from inside locring runs unwrapped except for its
count.  Their time is still taken out of the enclosing span's self time.

A target that is missing (renamed or deleted at some commit) is recorded in
``Tracer.missing`` and every metric fed only by missing targets is reported
as unmeasured; nothing else fails.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

from motzeta.errors import MotzetaError

# (module, attribute path, span name).  A name's prefix is its layer.
PIPELINES = ("zeta_trunc", "multizeta_trunc", "multizeta_separable", "sum_zeta_pullback", "dl_eval", "nearby_cycles")
TARGETS = (
    [("motzeta.zeta", f, "zeta.pipeline") for f in PIPELINES]
    + [
        ("motzeta.zeta", "JetTable.__init__", "zeta.table"),
        ("motzeta.zeta", "AxisCounts._closed", "zeta.closed"),
        ("motzeta.zeta", "jet_count_direct", "zeta.direct"),
        ("motzeta.zeta", "histogram_pair_counts", "zeta.pair_hist"),
        ("motzeta.zeta", "direct_pair_counts", "zeta.pair_direct"),
        ("motzeta.zeta", "monomial_pair_counts", "zeta.pair_strata"),
        ("motzeta.geomset", "twisted_count", "geomset.count"),
        ("motzeta.geomset", "quotient_count", "geomset.count"),
        ("motzeta.zeta", "twisted_count", "geomset.count"),
        ("motzeta.motclass", "twisted_count", "geomset.count"),
        ("motzeta.motclass", "fermat_twisted_count", "geomset.fermat"),
        ("motzeta.gf", "Field.__init__", "gf.field"),
        ("motzeta.gf", "Field.generator", "gf.setup"),
        ("motzeta.geomset", "splitting_field", "gf.setup"),
        ("motzeta.geomset", "get_field", "gf.setup"),
        ("motzeta.motclass", "bind_and_count", "motclass.burnside"),
    ]
    + [(m, f, "motclass.conv") for m in ("motzeta.motclass", "motzeta.series") for f in ("conv", "conv0", "conv1")]
    + [
        ("motzeta.egseq", "EGSeq.fit", "egseq.fit"),
        ("motzeta.series", "strand_fit", "series.fit"),
        ("motzeta.series", "closed_from_fit", "series.closed_fit"),
        ("motzeta.series", "ClosedSeries.expand", "series.expand"),
        ("motzeta.series", "SeparableSeries.expand", "series.expand"),
        ("motzeta.series", "SeparableSeries.phi", "series.chain"),
        ("motzeta.series", "SeparableSeries.phi_inv", "series.chain"),
    ]
    + [("motzeta.series", f, "series.hadamard") for f in ("hadamard_ext", "hadamard_conv", "v_hadamard")]
)
HOT_TARGETS = [
    ("motzeta.locring", "LocRat." + m, "locring")
    for m in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__", "__eq__", "inverse", "eval_at")
] + [
    ("motzeta.locring", "LaurentPoly." + m, "locring")
    for m in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "divexact", "eval_at")
]

# Per-layer metric -> (unit, span names that feed it).  An empty tuple means
# the benchmark measures it itself (meters, the fit ladder, the parent).
METRICS = {
    "zeta.table_rows": ("count", ("zeta.table",)),
    "zeta.tables": ("count", ("zeta.table",)),
    "zeta.table_s": ("s", ("zeta.table",)),
    "zeta.route_closed": ("count", ("zeta.closed",)),
    "zeta.route_hist": ("count", ("zeta.table",)),
    "zeta.route_direct": ("count", ("zeta.direct", "zeta.pair_direct")),
    "zeta.route_strata": ("count", ("zeta.pair_strata",)),
    "zeta.pair_s": ("s", ("zeta.pair_hist", "zeta.pair_direct", "zeta.pair_strata")),
    "zeta.refusals": ("count", ("zeta.pipeline",)),
    "zeta.pipeline_self_s": ("s", ("zeta.pipeline",)),
    "geomset.candidates": ("count", ()),
    "geomset.calls": ("count", ("geomset.count", "geomset.fermat")),
    "geomset.count_s": ("s", ("geomset.count", "geomset.fermat")),
    "gf.fields": ("count", ("gf.field",)),
    "gf.field_s": ("s", ("gf.field", "gf.setup")),
    "gf.max_degree": ("degree", ("gf.field",)),
    "gf.refusals": ("count", ("geomset.count", "geomset.fermat")),
    "motclass.burnside_s": ("s", ("motclass.burnside",)),
    "motclass.fermat_counts": ("count", ("geomset.fermat",)),
    "motclass.conv_s": ("s", ("motclass.conv",)),
    "egseq.fit_calls": ("count", ("egseq.fit",)),
    "egseq.fit_s": ("s", ("egseq.fit",)),
    "series.fit_s": ("s", ("series.fit",)),
    "series.closed_fit_s": ("s", ("series.closed_fit",)),
    "series.fit_attempts": ("count", ("series.fit",)),
    "series.fit_yield": ("ratio", ("series.fit", "series.closed_fit")),
    "series.samples_to_fit": ("count", ()),
    "series.expand_s": ("s", ("series.expand",)),
    "series.chain_s": ("s", ("series.chain",)),
    "series.hadamard_s": ("s", ("series.hadamard",)),
    "locring.calls": ("count", ("locring",)),
    "locring.inverse_calls": ("count", ("locring",)),
    "locring.self_s": ("s", ("locring",)),
}


class Span:
    __slots__ = ("id", "name", "target", "start", "end", "parent", "op", "self_s", "error", "refused", "extra")

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _extra(target, args, result):
    """Work counted at a span boundary, from the call's own arguments."""
    if target == "motzeta.zeta.JetTable.__init__":
        t = args[0]
        return t.q ** (t.dim * t.level)
    if target == "motzeta.gf.Field.__init__":
        return args[0].m
    if target == "motzeta.zeta.AxisCounts._closed":
        return result is not None
    return None


class Tracer:
    """Installs wrappers, records spans, and computes per-layer metrics."""

    def __init__(self, targets=TARGETS, hot_targets=HOT_TARGETS):
        self.targets = list(targets)
        self.hot_targets = list(hot_targets)
        self.spans = []
        self.stack = []  # frames: [span id, child time, hot]
        self.hot_calls = defaultdict(int)  # every call, nested ones included
        self.hot_entries = 0  # calls into the layer from outside it
        self.hot_self_s = 0.0
        self.op = None
        self.missing = {}
        self._installed = []
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self):
        for module, path, name in self.targets:
            self._patch(module, path, lambda fn, t, n=name: self._span_wrapper(fn, t, n))
        for module, path, name in self.hot_targets:
            self._patch(module, path, self._hot_wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _patch(self, module, path, make):
        target = "%s.%s" % (module, path)
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as e:
            self.missing[target] = "%s: %s" % (type(e).__name__, e)
            return
        if isinstance(original, classmethod):
            new = classmethod(make(original.__func__, target))
        else:
            new = make(original, target)
        setattr(owner, attr, new)
        self._installed.append((owner, attr, original))

    def _span_wrapper(self, fn, target, name):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = Span()
            span.id = tracer._next_id
            tracer._next_id += 1
            span.parent = stack[-1][0] if stack else None
            frame = [span.id, 0.0, False]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                span.name, span.target, span.op = name, target, tracer.op
                span.start, span.end, span.self_s = start, end, end - start - frame[1]
                span.error = type(error).__name__ if error is not None else None
                span.refused = isinstance(error, MotzetaError)
                span.extra = _extra(target, args, result) if error is None else None
                tracer.spans.append(span)

        return wrapper

    def _hot_wrapper(self, fn, target):
        tracer = self
        calls = self.hot_calls

        def wrapper(*args, **kwargs):
            calls[target] += 1
            stack = tracer.stack
            if stack and stack[-1][2]:
                return fn(*args, **kwargs)
            frame = [None, 0.0, True]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.hot_entries += 1
                tracer.hot_self_s += dur - frame[1]

        return wrapper

    # -- metrics ----------------------------------------------------------

    def unmeasured(self):
        """Metric -> reason, for metrics whose every feeding target is missing."""
        missing_by_name = defaultdict(list)
        installed = set()
        for module, path, name in self.targets + self.hot_targets:
            target = "%s.%s" % (module, path)
            if target in self.missing:
                missing_by_name[name].append("%s (%s)" % (target, self.missing[target]))
            else:
                installed.add(name)
        out = {}
        for metric, (_, feeds) in METRICS.items():
            if feeds and not installed.intersection(feeds):
                lost = [t for name in feeds for t in missing_by_name[name]]
                out[metric] = "wrap target missing: " + "; ".join(lost)
        return out

    def layer_metrics(self, op_units=()):
        """Per-layer values of one traced pass.  ``op_units`` holds, per op,
        the work units the benchmark counted itself (meters, fit rung)."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        ops_by = defaultdict(set)  # span name -> ops that reached it
        refused = defaultdict(set)  # layer -> ops a MotzetaError left it in
        byid = {s.id: s for s in self.spans}
        rows = max_degree = closed_ok = 0
        for s in self.spans:
            self_s[s.name] += s.self_s
            calls[s.name] += 1
            ops_by[s.name].add(s.op)
            layer = s.name.split(".")[0]
            parent = byid.get(s.parent)
            if s.refused and (parent is None or parent.name.split(".")[0] != layer):
                refused[layer].add(s.op)
            if s.error == "FieldTooLarge":
                refused["gf"].add(s.op)
            if s.error:
                continue
            if s.name == "zeta.table":
                rows += s.extra
            elif s.name == "gf.field":
                max_degree = max(max_degree, s.extra)
            elif s.name == "series.closed_fit":
                closed_ok += 1
            elif s.name == "zeta.closed" and s.extra:
                ops_by["zeta.closed.ok"].add(s.op)
        units = defaultdict(int)
        for u in op_units:
            for k, v in u.items():
                units[k] += v
        attempts = calls["series.fit"]
        return {
            "zeta.table_rows": rows,
            "zeta.tables": calls["zeta.table"],
            "zeta.table_s": self_s["zeta.table"],
            "zeta.route_closed": len(ops_by["zeta.closed.ok"]),
            "zeta.route_hist": len(ops_by["zeta.table"]),
            "zeta.route_direct": len(ops_by["zeta.direct"] | ops_by["zeta.pair_direct"]),
            "zeta.route_strata": len(ops_by["zeta.pair_strata"]),
            "zeta.pair_s": self_s["zeta.pair_hist"] + self_s["zeta.pair_direct"] + self_s["zeta.pair_strata"],
            "zeta.refusals": len(refused["zeta"]),
            "zeta.pipeline_self_s": self_s["zeta.pipeline"],
            "geomset.candidates": units["geomset.candidates"],
            "geomset.calls": calls["geomset.count"] + calls["geomset.fermat"],
            "geomset.count_s": self_s["geomset.count"] + self_s["geomset.fermat"],
            "gf.fields": calls["gf.field"],
            "gf.field_s": self_s["gf.field"] + self_s["gf.setup"],
            "gf.max_degree": max_degree,
            "gf.refusals": len(refused["gf"]),
            "motclass.burnside_s": self_s["motclass.burnside"],
            "motclass.fermat_counts": calls["geomset.fermat"],
            "motclass.conv_s": self_s["motclass.conv"],
            "egseq.fit_calls": calls["egseq.fit"],
            "egseq.fit_s": self_s["egseq.fit"],
            "series.fit_s": self_s["series.fit"],
            "series.closed_fit_s": self_s["series.closed_fit"],
            "series.fit_attempts": attempts,
            "series.fit_yield": closed_ok / attempts if attempts else 0.0,
            "series.samples_to_fit": units["series.samples_to_fit"],
            "series.expand_s": self_s["series.expand"],
            "series.chain_s": self_s["series.chain"],
            "series.hadamard_s": self_s["series.hadamard"],
            "locring.calls": self.hot_entries,
            "locring.inverse_calls": self.hot_calls["motzeta.locring.LocRat.inverse"],
            "locring.self_s": self.hot_self_s,
        }
