"""Run configuration: strict JSON in, fully resolved settings out.

The config file is plain JSON with a fixed vocabulary; unknown keys anywhere
are rejected rather than ignored so a typo cannot silently change a run.
Exact coefficients are written as decimal or fraction strings ("0.5", "1/3")
and parsed to rationals; bare JSON floats are refused in exact slots because
they would smuggle in binary rounding.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import PolynomialCurve
from .errors import ConfigError, DomainError
from .examples import BUILTINS
from .frames import CurvatureFamily, integrate_structure_equation
from .ratpoly import Poly
from .spaceform import SpaceForm

__all__ = ["RunConfig", "DEFAULTS"]


DEFAULTS = {
    "geometry": "euclidean",
    "curve": {"kind": "builtin", "name": "helix-frenet"},
    "grids": {
        "t": [-1.0, 1.0, 200],
        "s": [-1.5, 1.5, 50],
        "lambda": [-0.2, 0.2, 81],
    },
    "tolerances": {"rank_tol": 1e-8, "ode_tol": 1e-10, "mesh_tol": 1e-9},
    "outputs": {"mesh": "envelope.obj", "events": "events.csv", "report": "report.json"},
}

_GEOMETRIES = ("euclidean", "spherical", "hyperbolic")
#: largest node count on any one grid axis
MAX_GRID_COUNT = 100_000
#: largest t count x s count of a mesh: 2e6 vertices hold about 162 MB of mesh arrays
#: (81 B each), and an envelope run of that size peaks at about 200 MB RSS
MAX_MESH_VERTICES = 2_000_000
#: largest t- or lambda-degree of a kappa term key
MAX_KAPPA_DEGREE = 1_000


def singular_locus_path(mesh_path):
    """The file the singular locus goes to beside a mesh: stem.locus.ext, .obj with no extension."""
    stem, ext = os.path.splitext(mesh_path)
    return f"{stem}.locus{ext or '.obj'}"


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _exact_number(value, where):
    """int or decimal/fraction string -> Fraction; bare floats are refused."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: cannot parse {value!r} as an exact number") from exc
    if isinstance(value, float):
        raise ConfigError(
            f"{where}: write exact coefficients as strings (got float {value!r})"
        )
    raise ConfigError(f"{where}: expected an exact number, got {type(value).__name__}")


def _parse_kappa(spec, where):
    """Univariate coefficient list or {'i' / 'i,j': coeff} term map -> Poly."""
    if isinstance(spec, list):
        return Poly.from_t_coeffs([_exact_number(c, where) for c in spec])
    if isinstance(spec, dict):
        terms = {}
        for key, coeff in spec.items():
            parts = str(key).split(",")
            if len(parts) not in (1, 2):
                raise ConfigError(f"{where}: term key {key!r} is not 'i' or 'i,j'")
            try:
                i = int(parts[0])
                j = int(parts[1]) if len(parts) == 2 else 0
            except ValueError as exc:
                raise ConfigError(f"{where}: term key {key!r} is not integral") from exc
            if i < 0 or j < 0:
                raise ConfigError(f"{where}: term key {key!r} has negative degree")
            if max(i, j) > MAX_KAPPA_DEGREE:
                raise ConfigError(f"{where}: term key {key!r} has a degree above {MAX_KAPPA_DEGREE}")
            terms[(i, j)] = _exact_number(coeff, f"{where}[{key}]")
        return Poly(terms)
    raise ConfigError(f"{where}: expected a coefficient list or a term map")


def _parse_grid(value, where):
    if (not isinstance(value, list) or len(value) != 3
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise ConfigError(f"{where} must be [lo, hi, count]")
    try:
        lo, hi, count = (float(x) for x in value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: entry too large for a float") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ConfigError(f"{where}: lo, hi and hi - lo must be finite")
    if not count.is_integer() or not 2 <= count <= MAX_GRID_COUNT:
        raise ConfigError(f"{where}: count must be an integer in [2, {MAX_GRID_COUNT}]")
    if not lo < hi:
        raise ConfigError(f"{where}: need lo < hi")
    return [lo, hi, int(count)]


def _parse_curve(spec, geometry):
    _check_keys(spec, {"kind", "name", "coefficients", "delta", "kappa"}, "curve")
    kind = spec.get("kind")
    if kind == "builtin":
        _check_keys(spec, {"kind", "name"}, "curve")
        name = spec.get("name")
        if name not in BUILTINS:
            raise ConfigError(f"curve: unknown builtin {name!r}; choose from {list(BUILTINS)}")
        return {"kind": "builtin", "name": name}
    if kind == "polynomial":
        _check_keys(spec, {"kind", "coefficients"}, "curve")
        comps = spec.get("coefficients")
        if not isinstance(comps, list) or len(comps) < 3:
            raise ConfigError("curve: polynomial needs >= 3 component coefficient lists")
        parsed = []
        for idx, comp in enumerate(comps):
            if not isinstance(comp, list) or not comp:
                raise ConfigError(f"curve: component {idx} must be a nonempty list")
            parsed.append([str(_exact_number(c, f"curve.coefficients[{idx}]")) for c in comp])
        return {"kind": "polynomial", "coefficients": parsed}
    if kind == "curvature":
        _check_keys(spec, {"kind", "delta", "kappa"}, "curve")
        # the geometry fixes delta; an explicit one must agree with it
        delta = SpaceForm(geometry).delta
        given = spec.get("delta", delta)
        if type(given) is not int or given != delta:
            raise ConfigError(f"curve: delta {given!r} disagrees with geometry {geometry!r} (delta {delta})")
        kappa = spec.get("kappa")
        if not isinstance(kappa, list) or len(kappa) != 3:
            raise ConfigError("curve: curvature needs exactly three kappa entries")
        polys = [_parse_kappa(k, f"curve.kappa[{i}]") for i, k in enumerate(kappa)]
        return {
            "kind": "curvature",
            "delta": delta,
            "kappa": [{f"{i},{j}": str(v) for (i, j), v in p.terms()} for p in polys],
        }
    raise ConfigError(
        f"curve: kind must be 'builtin', 'polynomial' or 'curvature', got {kind!r}"
    )


@dataclass(frozen=True)
class RunConfig:
    """Fully validated, fully defaulted run settings."""

    geometry: str
    curve: dict
    grids: dict
    tolerances: dict
    outputs: dict

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        _check_keys(data, set(DEFAULTS), "config")
        geometry = data.get("geometry", DEFAULTS["geometry"])
        if geometry not in _GEOMETRIES:
            raise ConfigError(f"geometry must be one of {_GEOMETRIES}, got {geometry!r}")

        curve = _parse_curve(data.get("curve", DEFAULTS["curve"]), geometry)

        grids_in = data.get("grids", {})
        _check_keys(grids_in, set(DEFAULTS["grids"]), "grids")
        grids = {key: _parse_grid(grids_in.get(key, default), f"grids.{key}")
                 for key, default in DEFAULTS["grids"].items()}

        tol_in = data.get("tolerances", {})
        _check_keys(tol_in, set(DEFAULTS["tolerances"]), "tolerances")
        tolerances = {}
        for key, default in DEFAULTS["tolerances"].items():
            value = tol_in.get(key, default)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value < 1:
                raise ConfigError(f"tolerances.{key} must be a number in (0, 1)")
            tolerances[key] = float(value)

        out_in = data.get("outputs", {})
        _check_keys(out_in, set(DEFAULTS["outputs"]), "outputs")
        outputs = {}
        for key, default in DEFAULTS["outputs"].items():
            value = out_in.get(key, default)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"outputs.{key} must be a nonempty path string")
            outputs[key] = value
        # a name shared by two of the files a run writes would let one write replace the other
        files = (outputs["mesh"], singular_locus_path(outputs["mesh"]), outputs["events"], outputs["report"])
        if len({os.path.normpath(path) for path in files}) < len(files):
            raise ConfigError("outputs: the mesh %r, its locus %r, the events %r and the report %r "
                              "must be four different files" % files)

        return cls(geometry=geometry, curve=curve, grids=grids,
                   tolerances=tolerances, outputs=outputs)

    @classmethod
    def from_text(cls, text) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    # -- resolved view -------------------------------------------------------

    def resolved(self) -> dict:
        """The complete effective config; re-running from it reproduces a run."""
        return {
            "geometry": self.geometry,
            "curve": self.curve,
            "grids": self.grids,
            "tolerances": self.tolerances,
            "outputs": self.outputs,
        }

    # -- derived objects ------------------------------------------------------

    def _axis(self, name):
        lo, hi, count = self.grids[name]
        return np.linspace(lo, hi, count)

    def check_mesh_size(self):
        """Refuse a mesh of more than MAX_MESH_VERTICES vertices before any grid is built."""
        vertices = self.grids["t"][2] * self.grids["s"][2]
        if vertices > MAX_MESH_VERTICES:
            raise ConfigError(f"grids: a t count x s count of {vertices} mesh vertices is above "
                              f"{MAX_MESH_VERTICES}")

    def t_grid(self):
        return self._axis("t")

    def s_grid(self):
        return self._axis("s")

    def lambda_grid(self):
        return self._axis("lambda")

    @property
    def rank_tol(self):
        return self.tolerances["rank_tol"]

    @property
    def ode_tol(self):
        return self.tolerances["ode_tol"]

    @property
    def mesh_tol(self):
        return self.tolerances["mesh_tol"]

    def _kappa_polys(self):
        return tuple(
            Poly({tuple(int(p) for p in key.split(",")): Fraction(coeff)
                  for key, coeff in term_map.items()})
            for term_map in self.curve["kappa"]
        )

    def curvature_family(self) -> CurvatureFamily:
        """The config's curvature model: the scanned family, and the integrated one once lambda is fixed."""
        if self.curve["kind"] != "curvature":
            raise ConfigError("scanning needs a curve of kind 'curvature'")
        return CurvatureFamily(self.curve["delta"], self._kappa_polys())

    def build_curve(self):
        """A bare curve object, for type detection and osculating frames."""
        kind = self.curve["kind"]
        if kind == "polynomial":
            return PolynomialCurve([[Fraction(c) for c in comp]
                                    for comp in self.curve["coefficients"]])
        if kind == "builtin":
            return BUILTINS[self.curve["name"]][0]()
        raise ConfigError("curvature-data configs define a frame field, not a bare curve")

    def build_field(self, lam=None):
        """The frame field of a built-in framed curve or of integrated curvature data.

        ``lam`` fixes the family parameter; a curve with no lambda refuses one.
        """
        kind = self.curve["kind"]
        field_factory = BUILTINS[self.curve["name"]][1] if kind == "builtin" else None
        if field_factory is not None:
            if self.geometry != "euclidean":
                raise ConfigError(f"the built-in framed curve {self.curve['name']!r} is euclidean; "
                                  f"config has geometry {self.geometry!r}")
            if lam is not None:
                raise ConfigError(f"lambda = {lam!r} given, but the built-in framed curve "
                                  f"{self.curve['name']!r} has no family parameter")
            return field_factory(self.t_grid())
        if kind == "curvature":
            family = self.curvature_family()
            if lam is not None:
                if all(p.deg_u() == 0 for p in family.kappa):
                    raise ConfigError(f"lambda = {lam!r} given, but no curvature of this config "
                                      "depends on lambda")
                if not math.isfinite(lam):
                    raise DomainError(f"the family parameter must be finite, got lambda={lam!r}")
            # with no lambda given, a family is integrated at lambda = 0
            value = 0 if lam is None else Fraction(float(lam))
            curve = CurvatureFamily(family.delta, tuple(p.subs_u(value) for p in family.kappa))
            return integrate_structure_equation(SpaceForm(self.geometry), curve, self.t_grid(),
                                                tol=self.ode_tol)
        framed = [name for name, (_, factory) in BUILTINS.items() if factory is not None]
        raise ConfigError(
            f"no frame construction for curve spec {self.curve!r}; use a framed "
            f"builtin ({framed}) or curvature data"
        )
