"""Per-layer timing from outside the program: runtime wrappers, spans, counters.

The tracer replaces layer entry points on the module (or class) attribute the
caller looks them up from, records what happens while an op runs, and puts
every original back on ``uninstall``.  No file under ``src/`` changes.

Two kinds of wrapper:

* span -- a layer boundary.  Each call records (name, start, end, parent span,
  op id).  A span's self time is its duration minus the time its child spans
  cover.  A call that re-enters the span it is already inside (recursion) is
  passed through unrecorded.
* probe -- a hot leaf called thousands of times per op (polynomial evaluation,
  the structure matrix, re-orthonormalization).  Probes count calls and sum
  their time per enclosing span instead of storing one record per call, and
  they are not spans: their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.attr" names a class attribute.
SPANS = (
    ("cli.main", "framedcurves.cli", "main"),
    ("config.load", "framedcurves.config", "RunConfig.from_file"),
    ("frames.integrate", "framedcurves.frames", "integrate_structure_equation"),
    ("envelope.family", "framedcurves.envelope", "hyperplane_family"),
    ("envelope.mesh", "framedcurves.envelope", "envelope_mesh"),
    ("envelope.discriminant", "framedcurves.envelope", "discriminant_mesh"),
    ("envelope.locus", "framedcurves.envelope", "singular_locus"),
    ("export.obj", "framedcurves.envelope", "export_obj"),
    ("export.polylines", "framedcurves.envelope", "export_polylines"),
    ("export.csv", "framedcurves.classify", "export_events_csv"),
    ("export.report", "framedcurves.cli", "export_report"),
    ("export.write", "framedcurves.fileio", "atomic_write_text"),
    ("classify.scan", "framedcurves.classify", "scan_family"),
    ("classify.detector", "framedcurves.classify", "CurvatureFamily.detector"),
    ("classify.line_roots", "framedcurves.classify", "_line_roots"),
    ("classify.refine", "framedcurves.classify", "_refine_event"),
    ("classify.oracle", "framedcurves.classify", "_AdaptedTypeOracle.classify"),
    ("classify.oracle", "framedcurves.classify", "_AdaptedTypeOracle.classify_event"),
    ("ratpoly.poly_det", "framedcurves.ratpoly", "poly_det"),
    ("jets.exact_rank", "framedcurves.jets", "exact_rank_profile"),
    ("jets.float_rank", "framedcurves.jets", "float_rank_profile"),
    ("flags.residual", "framedcurves.flags", "c_integrality_residual"),
    ("flags.residual", "framedcurves.flags", "d_integrality_residual"),
    ("flags.lift", "framedcurves.flags", "c_lift_monomial"),
)

PROBES = (
    ("frames.rhs", "framedcurves.frames", "structure_matrix"),
    ("frames.reorth", "framedcurves.frames", "reorthonormalize"),
    ("ratpoly.subs_u", "framedcurves.ratpoly", "Poly.subs_u"),
    ("ratpoly.eval", "framedcurves.ratpoly", "Poly.eval"),
    ("ratpoly.evalf", "framedcurves.ratpoly", "Poly.evalf"),
)

# span record fields
NAME, START, END, PARENT, OP, CHILD, INFO = range(7)


def _scan_info(args, kwargs, result):
    lam = kwargs.get("lambda_grid", args[2] if len(args) > 2 else ())
    return {"lines": len(lam), "events": len(result.events),
            "exact": sum(1 for ev in result.events if ev.confidence == "exact")}


def _mesh_info(args, kwargs, result):
    return {"vertices": len(result.vertices),
            "degenerate": len(result.meta.get("degenerate_nodes", ()))}


def _integrate_info(args, kwargs, result):
    return {"nodes": len(result)}


def _criterion_info(args, kwargs, result):
    return {"elapsed": float(result.elapsed)}


_INFO = {
    "classify.scan": _scan_info,
    "envelope.mesh": _mesh_info,
    "envelope.discriminant": _mesh_info,
    "frames.integrate": _integrate_info,
}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "framedcurves" or name.startswith("framedcurves."))]


class Tracer:
    """Installs the wrappers, owns the span store, and restores the originals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.probes = {}  # op id -> {(probe name, enclosing span name): [calls, seconds]}
        self.op_id = None
        self._table = None
        self._patches = []  # (owner, attribute, original object)

    # -- installation ------------------------------------------------------------

    def _resolve(self, module_name, attr):
        """[(owner, attribute, original)] for every binding callers look up."""
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            return [(owner, meth, owner.__dict__[meth])]
        original = getattr(module, attr)
        return [(m, attr, original) for m in _modules() if m.__dict__.get(attr) is original]

    def _patch(self, owner, attr, original, wrap):
        if isinstance(original, classmethod):
            replacement = classmethod(wrap(original.__func__))
        else:
            replacement = wrap(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import framedcurves.cli  # noqa: F401  (loads every layer module)
        from framedcurves import acceptance

        for name, module_name, attr in SPANS:
            for owner, a, original in self._resolve(module_name, attr):
                self._patch(owner, a, original, lambda fn, n=name: self._span(fn, n))
        for name, module_name, attr in PROBES:
            for owner, a, original in self._resolve(module_name, attr):
                self._patch(owner, a, original, lambda fn, n=name: self._probe(fn, n))
        criteria = acceptance.CRITERIA
        wrapped = tuple(self._span(fn, f"acceptance.criterion_{k}", _criterion_info)
                        for k, fn in enumerate(criteria, start=1))
        acceptance.CRITERIA = wrapped
        self._patches.append((acceptance, "CRITERIA", criteria))

    def start_op(self, op_id):
        """Attribute what follows to op ``op_id``."""
        self.op_id = op_id
        self._table = self.probes.setdefault(op_id, {})

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- wrappers -------------------------------------------------------------------

    def _span(self, fn, name, info=None):
        info = info or _INFO.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, self.op_id, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += end - rec[START]
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _probe(self, fn, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, spans[stack[-1]][NAME] if stack else None)
                cell = self._table.get(key)
                if cell is None:
                    self._table[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        return wrapper

    # -- reading ------------------------------------------------------------------------

    def records(self):
        """Spans as dicts, for writing out when the run ends."""
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "op": s[OP], "self": s[END] - s[START] - s[CHILD], "info": s[INFO]}
                for s in self.spans]


# -- per-layer metrics ---------------------------------------------------------------------

PER_LAYER = (
    ("frames.integrate_s", "s"), ("frames.rhs_evals", "count"),
    ("frames.rhs_per_node", "count"), ("frames.reorth.calls", "count"),
    ("frames.reorth_s", "s"),
    ("ratpoly.subs_u.calls", "count"), ("ratpoly.subs_u_s", "s"),
    ("ratpoly.eval.calls", "count"), ("ratpoly.eval_s", "s"),
    ("ratpoly.evalf.calls", "count"), ("ratpoly.evalf_s", "s"), ("ratpoly.poly_det_s", "s"),
    ("classify.scan_s", "s"), ("classify.detector_s", "s"),
    ("classify.line_roots.calls", "count"), ("classify.line_roots_s", "s"),
    ("classify.refine.calls", "count"), ("classify.refine_s", "s"),
    ("classify.oracle.calls", "count"), ("classify.oracle_s", "s"),
    ("classify.lines_per_s", "1/s"), ("classify.events", "count"),
    ("classify.exact_share", "ratio"),
    ("jets.exact_rank.calls", "count"), ("jets.exact_rank_s", "s"),
    ("jets.float_rank.calls", "count"), ("jets.float_rank_s", "s"),
    ("envelope.family_s", "s"), ("envelope.mesh_s", "s"), ("envelope.discriminant_s", "s"),
    ("envelope.locus_s", "s"), ("envelope.vertices", "count"),
    ("envelope.vertices_per_s", "1/s"), ("envelope.degenerate_nodes", "count"),
    ("export.obj_s", "s"), ("export.polylines_s", "s"), ("export.csv_s", "s"),
    ("export.report_s", "s"), ("export.write_s", "s"), ("export.bytes", "B"),
    ("export.bytes_per_s", "B/s"),
    ("flags.residual_s", "s"), ("flags.lift_s", "s"),
) + tuple((f"acceptance.criterion_{k}_s", "s") for k in range(1, 9)) + (
    ("cli.self_s", "s"), ("config.load_s", "s"), ("trace.overhead_s", "s"),
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, probes, op_ids, bytes_by_op, overhead_s):
    """Per-layer metrics over the given traced ops.

    Times and counts are means per op; rates and shares are ratios of sums.
    """
    ops = set(op_ids)
    n = max(len(ops), 1)
    time, calls, info = {}, {}, {}
    cli_self = export_time = 0.0
    for s in spans:
        if s[OP] not in ops:
            continue
        name, d = s[NAME], s[END] - s[START]
        time[name] = time.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if name == "cli.main":
            cli_self += d - s[CHILD]
        if name.startswith("export.") and (
                s[PARENT] is None or not spans[s[PARENT]][NAME].startswith("export.")):
            export_time += d
        for key, value in (s[INFO] or {}).items():
            info[(name, key)] = info.get((name, key), 0) + value
    probe = {}
    for op in ops:
        for (name, parent), (count, seconds) in probes.get(op, {}).items():
            for key in ((name, None), (name, parent)) if parent is not None else ((name, None),):
                cell = probe.setdefault(key, [0, 0.0])
                cell[0] += count
                cell[1] += seconds

    def t(name):
        return time.get(name, 0.0) / n

    def c(name):
        return calls.get(name, 0) / n

    def p_calls(name, parent=None):
        return probe.get((name, parent), [0, 0.0])[0]

    def p_time(name):
        return probe.get((name, None), [0, 0.0])[1]

    nbytes = sum(bytes_by_op.get(op, 0) for op in ops)
    vertices = info.get(("envelope.mesh", "vertices"), 0) + info.get(
        ("envelope.discriminant", "vertices"), 0)
    rhs = p_calls("frames.rhs", "frames.integrate")
    values = {
        "frames.integrate_s": t("frames.integrate"),
        "frames.rhs_evals": rhs / n,
        "frames.rhs_per_node": _ratio(rhs, info.get(("frames.integrate", "nodes"), 0)),
        "frames.reorth.calls": p_calls("frames.reorth") / n,
        "frames.reorth_s": p_time("frames.reorth") / n,
        "ratpoly.poly_det_s": t("ratpoly.poly_det"),
        "classify.scan_s": t("classify.scan"),
        "classify.detector_s": t("classify.detector"),
        "classify.lines_per_s": _ratio(info.get(("classify.scan", "lines"), 0),
                                       time.get("classify.scan", 0.0)),
        "classify.events": info.get(("classify.scan", "events"), 0) / n,
        "classify.exact_share": _ratio(info.get(("classify.scan", "exact"), 0),
                                       info.get(("classify.scan", "events"), 0)),
        "envelope.vertices": vertices / n,
        "envelope.vertices_per_s": _ratio(vertices, time.get("envelope.mesh", 0.0)
                                          + time.get("envelope.discriminant", 0.0)),
        "envelope.degenerate_nodes": info.get(("envelope.mesh", "degenerate"), 0) / n,
        "export.bytes": nbytes / n,
        "export.bytes_per_s": _ratio(nbytes, export_time),
        "cli.self_s": cli_self / n,
        "trace.overhead_s": overhead_s,
    }
    for name in ("ratpoly.subs_u", "ratpoly.eval", "ratpoly.evalf"):
        values[f"{name}.calls"] = p_calls(name) / n
        values[f"{name}_s"] = p_time(name) / n
    for name in ("classify.line_roots", "classify.refine", "classify.oracle",
                 "jets.exact_rank", "jets.float_rank"):
        values[f"{name}.calls"] = c(name)
        values[f"{name}_s"] = t(name)
    for name in ("envelope.family", "envelope.mesh", "envelope.discriminant", "envelope.locus",
                 "export.obj", "export.polylines", "export.csv", "export.report",
                 "export.write", "flags.residual", "flags.lift", "config.load"):
        values[f"{name}_s"] = t(name)
    for k in range(1, 9):
        values[f"acceptance.criterion_{k}_s"] = info.get(
            (f"acceptance.criterion_{k}", "elapsed"), 0.0) / n
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}


def self_times(spans, op_ids):
    """Total self time per span name over the given ops, largest first."""
    ops = set(op_ids)
    out = {}
    for s in spans:
        if s[OP] in ops:
            out[s[NAME]] = out.get(s[NAME], 0.0) + s[END] - s[START] - s[CHILD]
    return sorted(out.items(), key=lambda kv: -kv[1])
