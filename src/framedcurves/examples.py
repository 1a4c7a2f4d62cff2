"""Built-in example curves, frame fields and flag lifts.

Everything here has a closed form, so the examples double as oracles: the
circle-with-radial-frame envelope is the unit cylinder, the helix envelope is
its tangent developable, and the monomial flag lifts have exactly rational
chart coordinates.  Each built-in curve is the base point of a frame E(t)
written in closed form, with constant curvatures: K is constant, so
E' = E K and every derivative is E K^k.  Tests and the command line both
pull from this gallery, the command line by name through ``BUILTINS``.
"""

from __future__ import annotations

import numpy as np

from .curves import BasePointCurve, monomial_curve
from .flags import c_lift_monomial, flag_from_curve, lift_chart
from .frames import FrameField, structure_matrix
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


def _frame(t, *columns):
    """(..., 4, 4) frames at t from the columns e_0, ..., e_3, each four entries (arrays or numbers)."""
    shape = np.shape(t)
    return np.stack([np.stack([np.broadcast_to(x, shape) for x in col], axis=-1) for col in columns],
                    axis=-1)


def _euclidean_field(frame, kappa, nodes):
    """A closed-form euclidean frame field with constant curvatures: kappa broadcast, kappa' = 0."""
    nodes = np.asarray(nodes, dtype=float)
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (len(nodes), 3))
    return FrameField(SpaceForm("euclidean"), nodes, frame(nodes), kappa, np.broadcast_to(0.0, kappa.shape))


# -- circle with radial framing ------------------------------------------------

#: kappa = (0, -1, 0): e_1' = -e_3, and the normal e_3 turns with the radius
_RADIAL_KAPPA = (0.0, -1.0, 0.0)


def _radial_circle_frame(t):
    c, s = np.cos(t), np.sin(t)
    return _frame(t, [1.0, c, s, 0.0], [0.0, -s, c, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, c, s, 0.0])


def circle_curve() -> BasePointCurve:
    """Unit circle in the euclidean plane z = 0, ambient (1, cos t, sin t, 0)."""
    return BasePointCurve(_radial_circle_frame, structure_matrix(0, _RADIAL_KAPPA))


def radial_circle_field(nodes=None):
    """Unit circle in E^3 framed so the hyperplane normal points radially.

    The tangent planes of the moving hyperplane family envelope the unit
    cylinder around the z axis, which makes this the standard smoke test for
    the envelope machinery.
    """
    if nodes is None:
        nodes = np.linspace(0.0, 2.0 * np.pi, 200)
    return _euclidean_field(_radial_circle_frame, _RADIAL_KAPPA, nodes)


def cylinder_point(t, s):
    """The radial-circle envelope: the unit cylinder (cos t, sin t, s)."""
    return np.array([np.cos(t), np.sin(t), s])


# -- helix with its arc-length Frenet framing ------------------------------------

#: the arc-length helix has curvature kappa_1 and torsion kappa_3 both 1/sqrt(2)
_HELIX_KAPPA = (1.0 / _SQ2, 0.0, 1.0 / _SQ2)


def _helix_frame(t):
    c, s = np.cos(t), np.sin(t)
    return _frame(t, [1.0, c / _SQ2, s / _SQ2, t / _SQ2], [0.0, -s / _SQ2, c / _SQ2, 1.0 / _SQ2],
                  [0.0, -c, -s, 0.0], [0.0, s / _SQ2, -c / _SQ2, 1.0 / _SQ2])


def helix_curve() -> BasePointCurve:
    """Arc-length helix (cos t, sin t, t)/sqrt(2), ambient leading 1."""
    return BasePointCurve(_helix_frame, structure_matrix(0, _HELIX_KAPPA))


def helix_frenet_field(nodes=None):
    """Arc-length helix with Frenet framing (e3 = binormal).

    The osculating-plane family envelopes the helix's tangent developable.
    """
    if nodes is None:
        nodes = np.linspace(-np.pi, np.pi, 200)
    return _euclidean_field(_helix_frame, _HELIX_KAPPA, nodes)


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
    """Named flag charts that must satisfy the c-system identically."""
    nodes = np.linspace(-0.5, 0.5, 21)
    out = [(f"clift-{a[0]}{a[1]}{a[2]}", lift_chart(c_lift_monomial(a), nodes)) for a in BUILTIN_TYPES]
    out.append(("helix-osculating", flag_from_curve(helix_curve(), nodes)))
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
    """(c-witness, d-witness): charts of deliberately broken lifts with O(1) residuals."""
    nodes = np.linspace(-0.5, 0.5, 21)
    broken_c = c_lift_monomial((1, 2, 3))
    broken_c[(2, 1)] = Poly()  # kill a diagonal entry the c-system needs
    broken_d = c_lift_monomial((1, 2, 3))
    broken_d[(3, 0)] = broken_d[(3, 0)] + Poly.monomial_t(1, 1)  # shear the last row
    return lift_chart(broken_c, nodes), lift_chart(broken_d, nodes)


# -- great circle ------------------------------------------------------------------


def _great_circle_frame(t):
    c, s = np.cos(t), np.sin(t)
    return _frame(t, [c, s, 0.0, 0.0], [-s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0])


def great_circle_curve() -> BasePointCurve:
    """Great circle (cos t, sin t, 0, 0) on the unit 3-sphere: delta = 1, kappa = 0."""
    return BasePointCurve(_great_circle_frame, structure_matrix(1, (0.0, 0.0, 0.0)))


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
