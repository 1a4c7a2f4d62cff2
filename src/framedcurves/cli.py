"""Command-line front end: config ingestion, run orchestration, file export.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
failure.  All file writes go through atomic renames, and a given config +
seed always produces byte-identical CSV and report files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .acceptance import run_all
from .classify import export_events_csv, scan_family
from .config import DEFAULTS, RunConfig
from .envelope import (
    NormalFormFamily,
    discriminant_mesh,
    envelope_mesh,
    export_obj,
    export_polylines,
    hyperplane_family,
    singular_locus,
)
from .errors import ConfigError, FramedCurveError
from .fileio import atomic_write_text, format_float
from .frames import frame_dual
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
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig.from_dict({})
    if getattr(args, "seed", None) is not None:
        cfg = RunConfig.from_dict({**cfg.resolved(), "seed": args.seed})
    return cfg


def _out_path(args, cfg, key):
    rel = cfg.outputs[key]
    root = getattr(args, "out", None) or "."
    path = rel if os.path.isabs(rel) else os.path.join(root, rel)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _sibling(path, tag):
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext or '.obj'}"


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
    if cfg.curve["kind"] == "curvature":
        _, field = cfg.build_field(lam=args.lam)
        target = frame_dual(field)
        subject = "frame dual"
    else:
        target = cfg.build_curve()
        subject = "curve"
    report = detect_type_report(target, args.t, rank_tol=cfg.rank_tol)
    a = report.type
    print(f"subject: {subject}")
    print(f"t: {format_float(args.t)}  lambda: {format_float(args.lam)}")
    print(f"type: ({', '.join(str(x) for x in a)})")
    print(f"schubert: {schubert_number(a)}")
    print(f"codim_D: {codim_adapted(a)}")
    print(f"codim_C: {codim_osculating(a)}")
    print(f"mode: {report.mode}  confidence: {report.confidence}")
    return 0


def _cmd_frame(args):
    cfg = _load_config(args)
    _, field = cfg.build_field(lam=args.lam)
    defects = field.gram_defects()
    path = os.path.join(getattr(args, "out", None) or ".", "frames.txt")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    lines = ["# t  e0..e3 column-major (16 entries)  gram_defect"]
    for i, t in enumerate(field.s):
        entries = " ".join(format_float(x) for x in field.matrices[i].T.ravel())
        lines.append(f"{format_float(t)} {entries} {format_float(defects[i])}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"frame table: {path}")
    print(f"nodes: {len(field.s)}  max Gram defect: {float(np.max(defects)):.3e}")
    return 0


def _cmd_envelope(args):
    cfg = _load_config(args)
    curve, field = cfg.build_field(lam=args.lam)
    fam = hyperplane_family(field, curve)
    mesh = envelope_mesh(fam, s_grid=cfg.s_grid(), tol=cfg.mesh_tol,
                         threads=args.threads)
    mesh_path = _out_path(args, cfg, "mesh")
    export_obj(mesh, mesh_path)
    locus = singular_locus(fam, tol=cfg.mesh_tol, t_grid=cfg.t_grid())
    locus_path = _sibling(mesh_path, "locus")
    export_polylines(locus, locus_path)
    report_path = _out_path(args, cfg, "report")
    export_report({
        "subcommand": "envelope",
        "config": cfg.resolved(),
        "mesh": {"path": cfg.outputs["mesh"], "vertices": int(len(mesh.vertices)),
                 "marked_singular": int(np.count_nonzero(mesh.singular))},
        "singular_locus": {"path": os.path.basename(locus_path),
                           "polylines": len(locus)},
        "residual_maxima": {"envelope": float(np.max(np.abs(mesh.residuals)))},
        "tolerances": cfg.tolerances,
        "arithmetic": {"envelope": "floating", "locus": "floating"},
    }, report_path)
    print(f"mesh: {mesh_path}")
    print(f"singular locus: {locus_path}")
    print(f"report: {report_path}")
    return 0


def _parse_type_flag(text):
    try:
        a = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--type expects a1,a2,a3 with integers, got {text!r}")
    if len(a) != 3:
        raise ConfigError(f"--type expects exactly three entries, got {text!r}")
    if a[0] < 1 or not (a[0] < a[1] < a[2]):
        raise ConfigError(f"--type expects a strictly increasing triple, got {text!r}")
    return a


def _cmd_normal_form(args):
    a = _parse_type_flag(args.type)
    nf = NormalFormFamily(a)
    if args.config:
        cfg = _load_config(args)
        t_grid, s_grid = cfg.t_grid(), cfg.s_grid()
        tol = cfg.mesh_tol
    else:
        # default window chosen to contain the reference vertex (t, s) = (1, 0)
        t_grid = np.linspace(-1.0, 1.0, 200)
        s_grid = np.linspace(0.0, 1.5, 50)
        tol = DEFAULTS["tolerances"]["mesh_tol"]
    mesh = discriminant_mesh(nf, t_grid, s_grid, tol=tol)
    name = f"normal-form-{a[0]}{a[1]}{a[2]}.obj"
    path = os.path.join(getattr(args, "out", None) or ".", name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    export_obj(mesh, path)
    locus = singular_locus(nf, tol=tol, t_grid=t_grid)
    export_polylines(locus, _sibling(path, "locus"))
    print(f"normal form {a}: {path}")
    print(f"vertices: {len(mesh.vertices)}  singular polylines: {len(locus)}")
    return 0


def _cmd_scan(args):
    cfg = _load_config(args)
    family = cfg.curvature_family()
    res = scan_family(family, cfg.t_grid(), cfg.lambda_grid(), tol=cfg.rank_tol)
    events_path = _out_path(args, cfg, "events")
    export_events_csv(res.events, events_path)
    detector = family.detector()
    report_path = _out_path(args, cfg, "report")
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
            "detector_at_events": max(
                (abs(detector.evalf(ev.t, ev.lam)) for ev in res.events),
                default=0.0,
            ),
        },
        "tolerances": cfg.tolerances,
        "arithmetic": {
            "detector": "exact-rational",
            "roots": "companion-matrix + Newton polish",
            "events": "exact when a rational representative verifies, else floating",
        },
    }, report_path)
    print(f"events: {events_path} ({len(res.events)} rows)")
    print(f"strata: {len(res.strata)}  degenerate regions: {len(res.degenerate_regions)}")
    print(f"report: {report_path}")
    return 0


def _cmd_enumerate(args):
    n = args.n if args.n is not None else 2
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
        path = os.path.join(args.out, "enumerate.csv")
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(path, table)
        print(f"table: {path}")
    return 0


def _cmd_verify(args):
    if args.seed is not None:
        np.random.seed(args.seed)
    ok = run_all(print)
    return 0 if ok else 1


# -- parser ----------------------------------------------------------------------


def _add_common(sub, config=True, out=True, seed=True):
    if config:
        sub.add_argument("--config", help="JSON run configuration")
    if out:
        sub.add_argument("--out", help="output directory (default: current)")
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="seed recorded in reports")


def build_parser():
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
    p.add_argument("--threads", type=int, default=1, help="strip workers")
    p.set_defaults(func=_cmd_envelope)

    p = subs.add_parser("normal-form", help="write a discriminant normal-form mesh")
    _add_common(p)
    p.add_argument("--type", required=True, help="type vector a1,a2,a3")
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
    _add_common(p, config=False, out=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FramedCurveError as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
