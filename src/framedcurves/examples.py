"""Built-in example curves, frame fields and flag lifts.

Everything here has a closed form, so the examples double as oracles: the
circle-with-radial-frame envelope is the unit cylinder, the helix envelope is
its tangent developable, and the monomial flag lifts have exactly rational
chart coordinates.  Tests and the command line both pull from this gallery,
the command line by name through ``BUILTINS``.
"""

from __future__ import annotations

import numpy as np

from .curves import ClosedFormCurve, monomial_curve
from .flags import FlagCurve, c_lift_monomial, flag_from_curve
from .frames import frame_field_from_function
from .ratpoly import Poly
from .spaceform import SpaceForm

__all__ = [
    "circle_curve",
    "helix_curve",
    "great_circle_curve",
    "radial_circle_field",
    "helix_frenet_field",
    "cylinder_point",
    "helix_developable_point",
    "builtin_clift_examples",
    "builtin_adapted_examples",
    "violation_witnesses",
    "BUILTINS",
]

_SQ2 = np.sqrt(2.0)


def _phase(t, k):
    """cos / sin of t shifted by k quarter turns: the k-th derivative pair."""
    return np.cos(t + 0.5 * np.pi * k), np.sin(t + 0.5 * np.pi * k)


#: derivative orders the closed-form curves provide
_MAX_ORDER = 11


def _base_point_curve(matrix_fn):
    """The framed curve e_0 of a closed-form frame: derivative k is matrix_fn(t, k)[:, 0]."""
    return ClosedFormCurve(lambda t, k: matrix_fn(t, k)[:, 0], dim=4, max_order=_MAX_ORDER)


# -- circle with radial framing ------------------------------------------------


def _radial_circle_matrix(t, k=0):
    c, s = _phase(t, k)
    one = 1.0 if k == 0 else 0.0
    e0 = np.array([one, c, s, 0.0])
    e1 = np.array([0.0, -s, c, 0.0])
    e2 = np.array([0.0, 0.0, 0.0, one])
    e3 = np.array([0.0, c, s, 0.0])
    return np.stack([e0, e1, e2, e3], axis=1)


def circle_curve() -> ClosedFormCurve:
    """Unit circle in the euclidean plane z = 0, ambient (1, cos t, sin t, 0)."""
    return _base_point_curve(_radial_circle_matrix)


def radial_circle_field(nodes=None):
    """Unit circle in E^3 framed so the hyperplane normal points radially.

    The tangent planes of the moving hyperplane family envelope the unit
    cylinder around the z axis, which makes this the standard smoke test for
    the envelope machinery.
    """
    if nodes is None:
        nodes = np.linspace(0.0, 2.0 * np.pi, 200)
    return frame_field_from_function(SpaceForm("euclidean"), _radial_circle_matrix, nodes)


def cylinder_point(t, s):
    """The radial-circle envelope: the unit cylinder (cos t, sin t, s)."""
    return np.array([np.cos(t), np.sin(t), s])


# -- helix with its arc-length Frenet framing ------------------------------------


def _helix_matrix(t, k=0):
    c, s = _phase(t, k)
    one = 1.0 if k == 0 else 0.0
    lin = t if k == 0 else (1.0 if k == 1 else 0.0)
    e0 = np.array([one, c / _SQ2, s / _SQ2, lin / _SQ2])
    e1 = np.array([0.0, -s, c, one]) / _SQ2
    e2 = np.array([0.0, -c, -s, 0.0])
    e3 = np.array([0.0, s, -c, one]) / _SQ2
    return np.stack([e0, e1, e2, e3], axis=1)


def helix_curve() -> ClosedFormCurve:
    """Arc-length helix (cos t, sin t, t)/sqrt(2), ambient leading 1."""
    return _base_point_curve(_helix_matrix)


def helix_frenet_field(nodes=None):
    """Arc-length helix with Frenet framing (e3 = binormal).

    The osculating-plane family envelopes the helix's tangent developable.
    """
    if nodes is None:
        nodes = np.linspace(-np.pi, np.pi, 200)
    return frame_field_from_function(SpaceForm("euclidean"), _helix_matrix, nodes)


def helix_developable_point(t, s):
    """Tangent developable of the arc-length helix: gamma(t) + s T(t)."""
    c, sn = np.cos(t), np.sin(t)
    return np.array([
        (c - s * sn) / _SQ2,
        (sn + s * c) / _SQ2,
        (t + s) / _SQ2,
    ])


# -- built-in flag lifts for the integrality residuals ----------------------------

#: Monomial types whose lifts and residual tables are exercised everywhere:
#: the classified frame-dual types together with their partner types.
BUILTIN_TYPES = (
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 4),
    (2, 3, 4),
    (3, 4, 5),
)


def builtin_clift_examples():
    """Named flag curves that must satisfy the c-system identically."""
    out = [(f"clift-{a[0]}{a[1]}{a[2]}", c_lift_monomial(a)) for a in BUILTIN_TYPES]
    helix_nodes = np.linspace(-0.5, 0.5, 21)
    out.append(("helix-osculating", flag_from_curve(helix_curve(), helix_nodes)))
    return out


def builtin_adapted_examples():
    """Named flag charts of monomial curves, nodes clear of their singular point."""
    nodes = np.linspace(0.1, 0.6, 21)
    base = np.eye(4)
    return [
        (f"adapted-{a[0]}{a[1]}{a[2]}", flag_from_curve(monomial_curve(a), nodes, base=base))
        for a in BUILTIN_TYPES
    ]


def violation_witnesses():
    """(c-witness, d-witness): deliberately broken lifts with O(1) residuals."""
    broken_c = dict(c_lift_monomial((1, 2, 3)).polys)
    broken_c[(2, 1)] = Poly()  # kill a diagonal entry the c-system needs
    broken_d = dict(c_lift_monomial((1, 2, 3)).polys)
    broken_d[(3, 0)] = broken_d[(3, 0)] + Poly.monomial_t(1, 1)  # shear the last row
    return FlagCurve(dim=4, polys=broken_c), FlagCurve(dim=4, polys=broken_d)


# -- great circle ------------------------------------------------------------------


def great_circle_curve() -> ClosedFormCurve:
    """Great circle (cos t, sin t, 0, 0) on the unit 3-sphere."""

    def derivative(t, k):
        c, s = _phase(t, k)
        return np.array([c, s, 0.0, 0.0])

    return ClosedFormCurve(derivative, dim=4, max_order=_MAX_ORDER)


# -- lookup used by the command line ----------------------------------------------

#: every built-in name: (bare curve, frame field or None); a framed builtin's
#: curve is the base point of its frame
BUILTINS = {
    "circle": (circle_curve, None),
    "great-circle": (great_circle_curve, None),
    "helix": (helix_curve, None),
    "circle-radial": (circle_curve, radial_circle_field),
    "helix-frenet": (helix_curve, helix_frenet_field),
}
