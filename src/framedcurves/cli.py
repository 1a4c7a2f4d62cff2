"""Command-line front end: config ingestion, run orchestration, file export.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
failure.  All file writes go through atomic renames, and a given config
always produces byte-identical CSV and report files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .acceptance import run_all
from .classify import _AdaptedTypeOracle, export_events_csv, scan_family
from .config import DEFAULTS, RunConfig, singular_locus_path
from .envelope import (
    _EXPORT_CHUNK,
    NormalFormFamily,
    discriminant_mesh,
    envelope_mesh,
    export_obj,
    export_polylines,
    hyperplane_family,
    singular_locus,
)
from .errors import ConfigError, DomainError, FiniteTypeError, FramedCurveError
from .fileio import atomic_open, atomic_write_text, format_float, format_floats, rows_text, spaced
from .jets import (
    codim_adapted,
    codim_osculating,
    detect_type_report,
    enumerate_generic_types,
    schubert_number,
)

__all__ = ["main", "export_report"]


def export_report(payload, path):
    """Deterministic JSON-style report; embeds the resolved config and defaults."""
    payload = dict(payload)
    payload.setdefault("defaults", DEFAULTS)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, text)


# -- shared plumbing -----------------------------------------------------------


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.from_file(args.config)
    return RunConfig.from_dict({})


def _out_file(args, rel):
    """rel under the --out directory (an absolute rel as it is), its directory made."""
    path = os.path.join(getattr(args, "out", None) or ".", rel)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _event_record(ev):
    return {
        "lambda": ev.lam,
        "t": ev.t,
        "type": list(ev.type) if ev.type else None,
        "class": str(ev.class_),
        "dual": list(ev.dual) if ev.dual else None,
        "codim_D": ev.codim_d,
        "codim_C": ev.codim_c,
        "schubert": ev.schubert,
        "confidence": ev.confidence,
    }


# -- subcommands ----------------------------------------------------------------


def _cmd_type(args):
    cfg = _load_config(args)
    if not (math.isfinite(args.t) and math.isfinite(args.lam)):
        raise DomainError(f"t and lambda must be finite, got t={args.t!r}, lambda={args.lam!r}")
    t_q = Fraction(repr(args.t))  # the decimal given, exactly
    if cfg.curve["kind"] == "curvature":
        # the frame dual's type from the family's co-moving dual jets, exactly;
        # no frame field is integrated, so t need not be a grid node
        oracle = _AdaptedTypeOracle(cfg.curvature_family(), cfg.rank_tol)
        a, confidence = oracle.classify(([-t_q.numerator, t_q.denominator], t_q, t_q), Fraction(repr(args.lam)))
        if a is None:
            raise FiniteTypeError(None, oracle.r_max, "the frame dual does not reach full rank "
                                  f"within r_max={oracle.r_max} at t={args.t!r}, lambda={args.lam!r}")
        subject, mode = "frame dual", "exact"
    else:
        report = detect_type_report(cfg.build_curve(), t_q)
        a, mode, confidence = report.type, report.mode, report.confidence
        subject = "curve"
    print(f"subject: {subject}")
    print(f"t: {format_float(args.t)}  lambda: {format_float(args.lam)}")
    print(f"type: ({', '.join(str(x) for x in a)})")
    print(f"schubert: {schubert_number(a)}")
    print(f"codim_D: {codim_adapted(a)}")
    print(f"codim_C: {codim_osculating(a)}")
    print(f"mode: {mode}  confidence: {confidence}")
    return 0


def _write_frame_table(path, t, matrices, defects):
    """``frames.txt``: a header, then per node t, the 16 entries of E column by
    column and the Gram defect, formatted and written ``_EXPORT_CHUNK`` rows at a time."""
    with atomic_open(path) as handle:
        handle.write(b"# t  e0..e3 column-major (16 entries)  gram_defect\n")
        for lo in range(0, len(t), _EXPORT_CHUNK):
            hi = lo + _EXPORT_CHUNK
            entries = np.swapaxes(matrices[lo:hi], 1, 2).reshape(-1, 16)  # column-major
            text = format_floats(np.column_stack([t[lo:hi], entries, defects[lo:hi]]))
            handle.write(rows_text([*spaced(text.T), "\n"]))


def _cmd_frame(args):
    cfg = _load_config(args)
    field = cfg.build_field(lam=args.lam)
    defects = field.gram_defects()
    path = _out_file(args, "frames.txt")
    _write_frame_table(path, field.s, field.matrices, defects)
    print(f"frame table: {path}")
    print(f"nodes: {len(field.s)}  max Gram defect: {float(np.max(defects)):.3e}")
    return 0


def _max_abs(x):
    """max |x| of a float array with no |x| temporary; all-zero arrays give 0.0."""
    return max(np.max(x), -np.min(x)) + 0.0


def _cmd_envelope(args):
    cfg = _load_config(args)
    cfg.check_mesh_size()
    fam = hyperplane_family(cfg.build_field(lam=args.lam))
    s_grid = cfg.s_grid()
    mesh = envelope_mesh(fam, s_grid=s_grid, tol=cfg.mesh_tol)
    mesh_path = _out_file(args, cfg.outputs["mesh"])
    export_obj(mesh, mesh_path)
    locus = singular_locus(fam, s_grid, tol=cfg.mesh_tol)
    locus_path = singular_locus_path(mesh_path)
    export_polylines(locus, locus_path)
    # F = <x - gamma, nu>_G and F_t = <x - gamma, nu'>_G (G the form matrix, or
    # diag(0, 1, 1, 1) in euclidean space) cancel down from these sizes
    scale = _max_abs(mesh.ambient) * max(_max_abs(fam.normal), _max_abs(fam.normal1))
    report_path = _out_file(args, cfg.outputs["report"])
    export_report({
        "subcommand": "envelope",
        "config": cfg.resolved(),
        "mesh": {"path": cfg.outputs["mesh"], "vertices": int(len(mesh.vertices)),
                 "marked_singular": int(np.count_nonzero(mesh.singular))},
        "singular_locus": {"path": os.path.basename(locus_path),
                           "polylines": len(locus)},
        "residual_maxima": {"envelope": float(_max_abs(mesh.residuals) / scale)},
        "tolerances": cfg.tolerances,
        "arithmetic": {"envelope": "floating", "locus": "floating"},
    }, report_path)
    print(f"mesh: {mesh_path}")
    print(f"singular locus: {locus_path}")
    print(f"report: {report_path}")
    return 0


#: the largest type entry whose factorial a float holds (170! ~ 7.3e306)
_MAX_TYPE_ENTRY = 170


def _parse_type_flag(text):
    try:
        a = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--type expects a1,a2,a3 with integers, got {text!r}")
    if len(a) != 3:
        raise ConfigError(f"--type expects exactly three entries, got {text!r}")
    if a[0] < 1 or not (a[0] < a[1] < a[2]):
        raise ConfigError(f"--type expects a strictly increasing triple, got {text!r}")
    if a[2] > _MAX_TYPE_ENTRY:
        raise ConfigError(f"--type entries must be at most {_MAX_TYPE_ENTRY}, got {text!r}")
    return a


def _cmd_normal_form(args):
    a = _parse_type_flag(args.type)
    nf = NormalFormFamily(a)
    if args.config:
        cfg = _load_config(args)
        cfg.check_mesh_size()
        t_grid, s_grid = cfg.t_grid(), cfg.s_grid()
        tol = cfg.mesh_tol
    else:
        # default window chosen to contain the reference vertex (t, s) = (1, 0)
        t_grid = np.linspace(-1.0, 1.0, 200)
        s_grid = np.linspace(0.0, 1.5, 50)
        tol = DEFAULTS["tolerances"]["mesh_tol"]
    mesh = discriminant_mesh(nf, t_grid, s_grid, tol=tol)
    name = f"normal-form-{a[0]}{a[1]}{a[2]}.obj"
    path = _out_file(args, name)
    export_obj(mesh, path)
    locus = singular_locus(nf, t_grid, tol=tol)
    export_polylines(locus, singular_locus_path(path))
    print(f"normal form {a}: {path}")
    print(f"vertices: {len(mesh.vertices)}  singular polylines: {len(locus)}")
    return 0


def _cmd_scan(args):
    cfg = _load_config(args)
    res = scan_family(cfg.curvature_family(), cfg.t_grid(), cfg.lambda_grid(), tol=cfg.rank_tol)
    # exact at the reported points: no coefficient overflows
    residual = max((abs(res.detector.eval(Fraction(ev.t), Fraction(ev.lam))) for ev in res.events), default=0)
    if residual > sys.float_info.max:
        raise DomainError("the detector at an event is beyond the float range")
    events_path = _out_file(args, cfg.outputs["events"])
    export_events_csv(res.events, events_path)
    report_path = _out_file(args, cfg.outputs["report"])
    export_report({
        "subcommand": "scan",
        "config": cfg.resolved(),
        "events": [_event_record(ev) for ev in res.events],
        "strata": [
            {
                "type": list(s.type) if s.type else None,
                "class": str(s.class_),
                "points": int(len(s.params)),
                "lambda_range": [float(s.params[0, 0]), float(s.params[-1, 0])],
                "confidence": s.confidence,
            }
            for s in res.strata
        ],
        "degenerate": res.degenerate,
        "degenerate_regions": res.degenerate_regions,
        "residual_maxima": {
            "detector_at_events": float(residual),
        },
        "tolerances": cfg.tolerances,
        "arithmetic": {
            "detector": "exact-rational",
            "roots": ("exact isolation by Descartes' rule on the dyadic boxes of Fujiwara's root bound,"
                      " each box at most 2^-100 of its points with ends that round to one double"),
            "strata": "one exact type per branch, at a rational lambda between events",
            "events": "exact at a rational lambda, floating at an irrational one",
        },
    }, report_path)
    print(f"events: {events_path} ({len(res.events)} rows)")
    print(f"strata: {len(res.strata)}  degenerate regions: {len(res.degenerate_regions)}")
    print(f"report: {report_path}")
    return 0


def _cmd_enumerate(args):
    n = args.n if args.n is not None else 2
    if n < 1 or args.budget < 0:
        raise ConfigError(f"enumerate needs --n >= 1 and --budget >= 0, got --n {n} --budget {args.budget}")
    types = enumerate_generic_types(n, args.budget, args.mode)
    header = ",".join(f"a{i + 1}" for i in range(n + 1)) + ",schubert,codim_D,codim_C"
    rows = [header]
    for a in types:
        rows.append(",".join(
            [str(x) for x in a]
            + [str(schubert_number(a)), str(codim_adapted(a)), str(codim_osculating(a))]
        ))
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if args.out:
        path = _out_file(args, "enumerate.csv")
        atomic_write_text(path, table)
        print(f"table: {path}")
    return 0


def _cmd_verify(args):
    ok = run_all(print)
    return 0 if ok else 1


# -- parser ----------------------------------------------------------------------


def _add_common(sub, config=True, out=True):
    if config:
        sub.add_argument("--config", help="JSON run configuration")
    if out:
        sub.add_argument("--out", help="output directory (default: current)")


@functools.cache
def build_parser():
    """The argparse tree of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="framedcurves",
        description="Framed space curves: type detection, frames, envelopes, scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("type", help="detect the type vector and codimensions")
    _add_common(p, out=False)
    p.add_argument("--t", type=float, default=0.0, help="curve parameter")
    p.add_argument("--lam", type=float, default=0.0, help="family parameter")
    p.set_defaults(func=_cmd_type)

    p = subs.add_parser("frame", help="construct or integrate a frame field")
    _add_common(p)
    p.add_argument("--lam", type=float, default=None, help="family parameter")
    p.set_defaults(func=_cmd_frame)

    p = subs.add_parser("envelope", help="write the envelope mesh and singular locus")
    _add_common(p)
    p.add_argument("--lam", type=float, default=None, help="family parameter")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.set_defaults(func=_cmd_envelope)

    p = subs.add_parser("normal-form", help="write a discriminant normal-form mesh")
    _add_common(p)
    p.add_argument("--type", required=True, help="type vector a1,a2,a3, increasing, at most 170")
    p.set_defaults(func=_cmd_normal_form)

    p = subs.add_parser("scan", help="scan a family and write the event CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("enumerate", help="list generic types within a codim budget")
    _add_common(p, config=False)
    p.add_argument("--n", type=int, default=None, help="curve dimension parameter")
    p.add_argument("--budget", type=int, default=2, help="codimension budget")
    p.add_argument("--mode", default="ordinary",
                   choices=("ordinary", "adapted", "osculating"))
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify)

    return parser


#: flags that take one float, so the token after them is always their value
_FLOAT_FLAGS = ("--t", "--lam")


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _names_float_flag(arg):
    """True if ``arg`` is a float flag or, as argparse abbreviates, a unique prefix of one."""
    if arg in _FLOAT_FLAGS:
        return True
    return len(arg) > 2 and sum(flag.startswith(arg) for flag in _FLOAT_FLAGS) == 1


def _attach_float_values(argv):
    """Rewrite ``--t -1e-05`` as ``--t=-1e-05`` for every float flag.

    argparse reads a detached value that starts with '-' as an option name
    unless it looks like a plain decimal such as ``-0.5``, so ``--t -1e-05``
    and ``--lam -inf`` would stop with a usage error; joined to their flag,
    they parse as the same floats as the ``--t=-1e-05`` form.  Abbreviations
    such as ``--la`` are joined too, and argparse resolves them as usual.
    """
    out = []
    k = 0
    while k < len(argv):
        arg = argv[k]
        value = argv[k + 1] if k + 1 < len(argv) else ""
        if _names_float_flag(arg) and value.startswith("-") and _is_float(value):
            out.append(f"{arg}={value}")
            k += 2
        else:
            out.append(arg)
            k += 1
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_float_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        for name, value in vars(args).items():
            # argparse strips a lone "--" given as a flag's value (--type=--) and
            # stores an unconverted empty list; no flag here takes a list
            if isinstance(value, list):
                raise ConfigError(f"--{name} needs a value, got {value!r}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FramedCurveError as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
