"""Output checks against oracles that do not use the package's own code.

Every oracle here is written from the mathematical definition (closed-form
surfaces, the normal-form generating family, the structure equation solved by
scipy's DOP853) and reads only the files an op wrote.  Nothing is imported
from ``framedcurves``.  Each check returns a list of problems; an empty list
means the output passed.  The runner calls them through ``sidecar.py``, in a
process of their own, so their memory stays out of the op's peak RSS.
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

import numpy as np

_SQ2 = math.sqrt(2.0)


# -- file readers -----------------------------------------------------------------


def read_obj(path):
    """(params, ambient, vertices, faces) of an exported OBJ file."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")

    def rows(prefix, dtype):
        k = len(prefix)
        return np.loadtxt([line[k:] for line in lines if line.startswith(prefix)],
                          dtype=dtype, ndmin=2)

    return (rows(b"# param ", float), rows(b"# ambient ", float), rows(b"v ", float),
            rows(b"f ", np.int64))


def _axis(spec):
    lo, hi, count = spec
    return np.linspace(float(lo), float(hi), int(count))


def _grid_problems(params, t_axis, s_axis, what):
    """Vertices must come strip by strip: every t node, every s sample, in order."""
    expected = len(t_axis) * len(s_axis)
    if params.shape[0] != expected:
        return [f"{what}: {params.shape[0]} vertices, expected {expected}"]
    t = params[:, 0].reshape(len(t_axis), len(s_axis))
    s = params[:, 1].reshape(len(t_axis), len(s_axis))
    scale = max(1.0, float(np.max(np.abs(t_axis))))
    if np.max(np.abs(t - t_axis[:, None])) > 1e-12 * scale:
        return [f"{what}: t parameters off the configured grid"]
    if np.max(np.abs(s - s_axis[None, :])) > 1e-12 * max(1.0, float(np.max(np.abs(s_axis)))):
        return [f"{what}: s parameters off the configured grid"]
    return []


def _face_problems(faces, n_vertices, expected_faces, what):
    if faces.shape[0] != expected_faces:
        return [f"{what}: {faces.shape[0]} faces, expected {expected_faces}"]
    if faces.size and (faces.min() < 1 or faces.max() > n_vertices):
        return [f"{what}: face index outside 1..{n_vertices}"]
    return []


# -- mesh-export --------------------------------------------------------------------


def cylinder_point(t, s):
    """Envelope of the radially framed unit circle: the unit cylinder."""
    return np.stack([np.cos(t), np.sin(t), s], axis=-1)


def helix_developable_point(t, s):
    """gamma(t) + s T(t) for the arc-length helix (cos t, sin t, t) / sqrt 2."""
    c, sn = np.cos(t), np.sin(t)
    return np.stack([(c - s * sn) / _SQ2, (sn + s * c) / _SQ2, (t + s) / _SQ2], axis=-1)


def check_builtin_envelope(out_dir, expect):
    """Helix / circle envelope vertices against their closed forms to 1e-6."""
    path = os.path.join(out_dir, "envelope.obj")
    if not os.path.exists(path):
        return ["envelope.obj missing"]
    params, ambient, verts, faces = read_obj(path)
    t_axis, s_axis = _axis(expect["grids"]["t"]), _axis(expect["grids"]["s"])
    problems = _grid_problems(params, t_axis, s_axis, "envelope")
    if problems:
        return problems
    oracle = helix_developable_point if expect["field"] == "helix-frenet" else cylinder_point
    ref = oracle(params[:, 0], params[:, 1])
    if verts.shape != ref.shape:
        return [f"envelope: {verts.shape[0]} v lines for {ref.shape[0]} parameters"]
    err = float(np.max(np.abs(verts - ref)))
    if not err <= 1e-6:
        problems.append(f"envelope: vertex off the {expect['field']} closed form by {err:.3e}")
    if ambient.shape != (len(ref), 4) or np.max(np.abs(ambient - np.hstack(
            [np.ones((len(ref), 1)), ref]))) > 1e-6:
        problems.append("envelope: ambient coordinates disagree with the closed form")
    problems += _face_problems(faces, len(verts), (len(t_axis) - 1) * (len(s_axis) - 1),
                               "envelope")
    return problems


def normal_form_residuals(a, t, x):
    """(|F|, |F_t|) relative to the sum of their terms' magnitudes.

    F(t, x) = t^a3/a3! + x1 t^(a3-a1)/(a3-a1)! + x2 t^(a3-a2)/(a3-a2)! + x3.
    """
    a1, a2, a3 = a
    coeffs = (np.ones_like(t), x[:, 0], x[:, 1])
    degrees = (a3, a3 - a1, a3 - a2)

    def rel(order, constant):
        terms = [constant] if constant is not None else []
        for coeff, deg in zip(coeffs, degrees):
            d = deg - order
            if d >= 0:
                terms.append(coeff * t**d / math.factorial(d))
        total = np.sum(terms, axis=0)
        scale = np.sum(np.abs(terms), axis=0)
        return np.abs(total) / np.maximum(scale, 1e-300)

    return rel(0, x[:, 2]), rel(1, None)


def check_normal_form(out_dir, expect):
    """F and F_t vanish on the discriminant vertices to 1e-9 relative."""
    a = tuple(expect["type"])
    path = os.path.join(out_dir, f"normal-form-{a[0]}{a[1]}{a[2]}.obj")
    if not os.path.exists(path):
        return [f"{os.path.basename(path)} missing"]
    params, _, verts, faces = read_obj(path)
    t_axis, s_axis = _axis(expect["grids"]["t"]), _axis(expect["grids"]["s"])
    problems = _grid_problems(params, t_axis, s_axis, "normal form")
    if problems:
        return problems
    if verts.shape[0] != params.shape[0]:
        return [f"normal form: {verts.shape[0]} v lines for {params.shape[0]} parameters"]
    f_rel, ft_rel = normal_form_residuals(a, params[:, 0], verts)
    worst = float(max(np.max(f_rel), np.max(ft_rel)))
    if not worst <= 1e-9:
        problems.append(f"normal form {a}: F / F_t residual {worst:.3e} (relative)")
    problems += _face_problems(faces, len(verts), (len(t_axis) - 1) * (len(s_axis) - 1),
                               "normal form")
    return problems


# -- scan-unfold -----------------------------------------------------------------------


def check_scan(out_dir, expect):
    """Exactly one event, within 1e-4 of (t0, lambda0), type (3,4,5), dual (1,2,5)."""
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return ["report.json missing"]
    with open(path, "r", encoding="utf-8") as fh:
        events = json.load(fh).get("events", [])
    t0, lam0 = float(Fraction(expect["t0"])), float(Fraction(expect["lam0"]))
    found = "; ".join(
        f"(t={ev['t']:.6g}, lambda={ev['lambda']:.6g}, type={ev['type']}, "
        f"dual={ev['dual']}, {ev['confidence']})" for ev in events
    )
    where = f"(t0, lambda0) = ({expect['t0']}, {expect['lam0']})"
    if len(events) != 1:
        return [f"scan {where}: {len(events)} events: {found or 'none'}"]
    ev = events[0]
    if (abs(ev["t"] - t0) > 1e-4 or abs(ev["lambda"] - lam0) > 1e-4
            or ev["type"] != [3, 4, 5] or ev["dual"] != [1, 2, 5]):
        return [f"scan {where}: event {found}"]
    return []


# -- curvature-frames ----------------------------------------------------------------------


def structure_matrix(delta, k1, k2, k3):
    """K in E' = E K for n = 2 (columns e0..e3, e0 the base point)."""
    return np.array([
        [0.0, -delta, 0.0, 0.0],
        [1.0, 0.0, -k1, -k2],
        [0.0, k1, 0.0, -k3],
        [0.0, k2, k3, 0.0],
    ])


class FrameReference:
    """The structure equation E' = E K(t), E(0) = I, solved by scipy DOP853."""

    def __init__(self, expect):
        from scipy.integrate import solve_ivp

        self.delta = int(expect["delta"])
        self.k1 = float(Fraction(expect["k1"]))
        self.c = float(Fraction(expect["c"]))
        self.nodes = _axis(expect["grids"]["t"])
        sol = solve_ivp(
            lambda t, y: (y.reshape(4, 4) @ self.k(t)).ravel(),
            (float(self.nodes[0]), float(self.nodes[-1])),
            np.eye(4).ravel(), method="DOP853", rtol=1e-12, atol=1e-14, t_eval=self.nodes,
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        self.frames = sol.y.T.reshape(-1, 4, 4)
        self.derivs = np.stack([e @ self.k(t) for e, t in zip(self.frames, self.nodes)])

    def k(self, t):
        return structure_matrix(self.delta, self.k1, 0.0, self.c * t * t)


def read_frames(path):
    rows = np.loadtxt(path, comments="#", ndmin=2)
    return rows[:, 0], rows[:, 1:17].reshape(-1, 4, 4).transpose(0, 2, 1)


def check_frames(out_dir, expect, ref):
    """frames.txt against the DOP853 reference to 1e-6 relative per node."""
    path = os.path.join(out_dir, "frames.txt")
    if not os.path.exists(path):
        return ["frames.txt missing"]
    t, frames = read_frames(path)
    if t.shape != ref.nodes.shape or np.max(np.abs(t - ref.nodes)) > 1e-12 * 10:
        return [f"frames: {len(t)} rows off the {len(ref.nodes)} configured nodes"]
    err = np.max(np.abs(frames - ref.frames), axis=(1, 2))
    rel = err / np.maximum(1.0, np.max(np.abs(ref.frames), axis=(1, 2)))
    worst = float(np.max(rel))
    if not worst <= 1e-6:
        i = int(np.argmax(rel))
        return [f"frames ({expect['geometry']}): node t={t[i]:.6g} off the reference "
                f"by {worst:.3e} (relative)"]
    return []


def check_curvature_envelope(out_dir, expect, ref):
    """Vertices on the reference hyperplanes <x, e3> and their t-derivatives."""
    path = os.path.join(out_dir, "envelope.obj")
    if not os.path.exists(path):
        return ["envelope.obj missing"]
    params, amb, verts, faces = read_obj(path)
    s_axis = _axis(expect["grids"]["s"])
    ns = len(s_axis)
    # the hyperplane family is degenerate exactly where kappa3 = c t^2 vanishes
    live = np.flatnonzero(ref.c * ref.nodes**2 != 0.0)
    problems = _grid_problems(params, ref.nodes[live], s_axis, "curvature envelope")
    if problems:
        return problems
    if amb.shape != (len(params), 4) or verts.shape[0] != len(params):
        return ["curvature envelope: ambient / v lines do not match the parameters"]
    node = np.repeat(live, ns)
    e, de = ref.frames[node], ref.derivs[node]
    n, dn = e[:, :, 3], de[:, :, 3]
    geometry = expect["geometry"]
    if geometry == "euclidean":
        gamma, dgamma = e[:, 1:, 0], de[:, 1:, 0]
        x = amb[:, 1:]
        rel_f = np.abs(np.einsum("ij,ij->i", x - gamma, n[:, 1:])) / (
            (np.linalg.norm(x, axis=1) + np.linalg.norm(gamma, axis=1)) * np.linalg.norm(n, axis=1))
        ft = (np.einsum("ij,ij->i", x - gamma, dn[:, 1:])
              - np.einsum("ij,ij->i", dgamma, n[:, 1:]))
        rel_ft = np.abs(ft) / (
            (np.linalg.norm(x, axis=1) + np.linalg.norm(gamma, axis=1)) * np.linalg.norm(dn, axis=1)
            + np.linalg.norm(dgamma, axis=1) * np.linalg.norm(n, axis=1))
        projected = x
        model = np.abs(amb[:, 0] - 1.0)
    else:
        sign = np.array([1.0, 1.0, 1.0, 1.0]) if geometry == "spherical" else \
            np.array([-1.0, 1.0, 1.0, 1.0])
        xj = amb * sign
        norm_x = np.linalg.norm(amb, axis=1)
        rel_f = np.abs(np.einsum("ij,ij->i", xj, n)) / (norm_x * np.linalg.norm(n, axis=1))
        rel_ft = np.abs(np.einsum("ij,ij->i", xj, dn)) / (norm_x * np.linalg.norm(dn, axis=1))
        target = 1.0 if geometry == "spherical" else -1.0
        model = np.abs(np.einsum("ij,ij->i", xj, amb) - target) / norm_x**2
        x0 = amb[:, 0]
        safe = np.where(np.abs(x0) < 1e-9, np.copysign(1e-9, x0), x0)
        projected = amb[:, 1:] / safe[:, None]
    worst = float(max(np.max(rel_f), np.max(rel_ft)))
    if not worst <= 1e-6:
        problems.append(f"curvature envelope ({geometry}): hyperplane residual {worst:.3e}")
    if float(np.max(model)) > 1e-9:
        problems.append(f"curvature envelope ({geometry}): ambient point off the model")
    proj_err = np.max(np.abs(verts - projected), axis=1) / np.maximum(
        1.0, np.max(np.abs(projected), axis=1))
    if float(np.max(proj_err)) > 1e-9:
        problems.append(f"curvature envelope ({geometry}): v line is not the chart "
                        f"image of its ambient point")
    problems += _face_problems(faces, len(verts), (len(live) - 1) * (ns - 1),
                               "curvature envelope")
    return problems


# -- acceptance-verify ---------------------------------------------------------------------

_PASS = re.compile(r"^criterion (\d+) PASS\b", re.M)
_FAIL = re.compile(r"^criterion (\d+) FAIL\b", re.M)


def check_verify(stdout, expect):
    """Eight PASS lines, one per criterion, and no FAIL line."""
    passed = sorted(int(k) for k in _PASS.findall(stdout))
    failed = sorted(int(k) for k in _FAIL.findall(stdout))
    want = list(range(1, int(expect["criteria"]) + 1))
    problems = []
    if failed:
        problems.append(f"verify: criteria {failed} FAIL")
    if passed != want:
        problems.append(f"verify: PASS lines for {passed}, expected {want}")
    return problems


# -- dispatch -------------------------------------------------------------------------------


def check_op(op, out_dir, stdout, references):
    """Problems with one op's output; ``references`` caches DOP853 solutions by config."""
    kind, expect = op["kind"], op["expect"]
    if kind == "verify":
        return check_verify(stdout, expect)
    if kind == "scan":
        return check_scan(out_dir, expect)
    if kind == "normal-form":
        return check_normal_form(out_dir, expect)
    if "field" in expect:
        return check_builtin_envelope(out_dir, expect)
    ref = references.get(op["config"])
    if ref is None:
        ref = references[op["config"]] = FrameReference(expect)
    if kind == "frame":
        return check_frames(out_dir, expect, ref)
    return check_curvature_envelope(out_dir, expect, ref)
