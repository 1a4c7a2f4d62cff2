"""Acceptance suite: eight verifiable claims the package is built around.

Each criterion is a standalone function returning a CriterionResult; run_all
prints exactly one PASS/FAIL line per criterion.  The suite backs both
``pytest tests/test_acceptance.py`` and the ``verify`` subcommand, and every
tolerance and time budget is pinned here rather than spread through callers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from .classify import class_of, scan_family
from .curves import monomial_curve
from .envelope import NormalFormFamily, discriminant_mesh, envelope_mesh, hyperplane_family
from .examples import (
    BUILTIN_TYPES,
    builtin_adapted_examples,
    builtin_clift_examples,
    helix_developable_point,
    helix_frenet_field,
    radial_circle_field,
    violation_witnesses,
)
from .flags import c_integrality_residual, c_lift_monomial, d_integrality_residual, dual_curve_from_clift
from .frames import CurvatureFamily, integrate_structure_equation
from .jets import (
    codim_adapted,
    codim_osculating,
    detect_type,
    dual_type,
    enumerate_generic_types,
    schubert_number,
)
from .ratpoly import Poly
from .spaceform import SpaceForm

__all__ = ["CriterionResult", "CRITERIA", "run_all"] + [f"criterion_{k}" for k in range(1, 9)]


@dataclass
class CriterionResult:
    number: int
    ok: bool
    detail: str
    elapsed: float
    budget: float

    def line(self):
        verdict = "PASS" if self.ok else "FAIL"
        return (f"criterion {self.number} {verdict}: {self.detail} "
                f"[{self.elapsed:.2f}s / budget {self.budget:.0f}s]")


def _result(number, budget, ok, detail, start):
    elapsed = time.perf_counter() - start
    return CriterionResult(number, bool(ok) and elapsed <= budget, detail, elapsed, budget)


def _triples(top):
    return list(combinations(range(1, top + 1), 3))


# -- 1: type detection matches the monomial models --------------------------------


def criterion_1():
    """Monomial curve of type a detects as a: exact a3 <= 7, float a3 <= 5."""
    start = time.perf_counter()
    bad = []
    exact_cases = _triples(7)
    for a in exact_cases:
        got = detect_type(monomial_curve(a), 0)
        if got != a:
            bad.append((a, got, "exact"))
    float_cases = _triples(5)
    for a in float_cases:
        got = detect_type(monomial_curve(a), 0.0, rank_tol=1e-8)
        if got != a:
            bad.append((a, got, "float"))
    detail = (f"exact {len(exact_cases) - sum(b[2] == 'exact' for b in bad)}/{len(exact_cases)}, "
              f"float {len(float_cases) - sum(b[2] == 'float' for b in bad)}/{len(float_cases)}")
    if bad:
        detail += f"; first failure {bad[0]}"
    return _result(1, 30.0, not bad, detail, start)


# -- 2: duality is an involution and matches the lifted models ----------------------


def criterion_2():
    """dual_type o dual_type = id (n <= 4, entries <= 9); lifted duals detect right."""
    start = time.perf_counter()
    bad = []
    count = 0
    for n in range(1, 5):
        for a in combinations(range(1, 10), n + 1):
            count += 1
            if dual_type(dual_type(a)) != a:
                bad.append(("involution", a))
    numeric = _triples(6)
    for a in numeric:
        dual = dual_curve_from_clift(c_lift_monomial(a))
        got = detect_type(dual, 0)
        if got != dual_type(a):
            bad.append(("lift", a, got))
    detail = f"involution on {count} types, {len(numeric)} lifted duals detected"
    if bad:
        detail += f"; first failure {bad[0]}"
    return _result(2, 60.0, not bad, detail, start)


# -- 3: codimension chain and the frozen generic-type lists -------------------------


_ORDINARY_LIST = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4)]
_ADAPTED_LIST = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4)]
_OSCULATING_LIST = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
    (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
]


def criterion_3():
    """codim_osculating <= codim_adapted <= schubert; generic lists byte-exact."""
    start = time.perf_counter()
    bad = []
    count = 0
    for n in range(1, 5):
        for a in combinations(range(1, 10), n + 1):
            count += 1
            if not codim_osculating(a) <= codim_adapted(a) <= schubert_number(a):
                bad.append(("chain", a))
    lists = (
        ("ordinary", _ORDINARY_LIST),
        ("adapted", _ADAPTED_LIST),
        ("osculating", _OSCULATING_LIST),
    )
    for mode, frozen in lists:
        got = enumerate_generic_types(2, 2, mode)
        if repr(got) != repr(frozen):
            bad.append((mode, got))
    detail = f"chain on {count} types; ordinary/adapted/osculating lists match frozen"
    if bad:
        detail += f"; first failure {bad[0]}"
    return _result(3, 5.0, not bad, detail, start)


# -- 4: frame integration stays in the structure group ------------------------------


def criterion_4():
    """Arc length 20 at tol 1e-10 keeps the Gram defect <= 1e-8 for all deltas."""
    start = time.perf_counter()
    cases = (
        (0, (1, 0, 0), "euclidean"),
        (1, (1, 0, 0), "spherical"),
        (-1, (2, 0, 0), "hyperbolic"),
    )
    drifts = []
    ok = True
    for delta, kappa, kind in cases:
        curv = CurvatureFamily(delta, kappa)
        field = integrate_structure_equation(SpaceForm(kind), curv, np.linspace(0.0, 20.0, 201), tol=1e-10)
        drift = float(np.max(field.gram_defects()))
        drifts.append(f"{kind} {drift:.2e}")
        ok = ok and drift <= 1e-8
    return _result(4, 5.0, ok, "max Gram defect: " + ", ".join(drifts), start)


# -- 5: envelopes against their closed forms ----------------------------------------


def criterion_5():
    """Radial circle -> unit cylinder (1e-9); helix -> tangent developable (1e-6).

    The helix check measures each vertex against the closed-form point at its
    own (t, s), which bounds the Hausdorff distance between the two surfaces.
    """
    start = time.perf_counter()
    field = radial_circle_field(np.linspace(0.0, 2.0 * np.pi, 200))
    mesh = envelope_mesh(hyperplane_family(field), s_grid=np.linspace(-1.5, 1.5, 50))
    v = mesh.vertices
    cyl = float(np.max(np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0)))

    field = helix_frenet_field(np.linspace(-np.pi, np.pi, 200))
    mesh = envelope_mesh(hyperplane_family(field), s_grid=np.linspace(-1.5, 1.5, 50))
    analytic = helix_developable_point(mesh.params[:, 0], mesh.params[:, 1]).T
    dev = float(np.max(np.linalg.norm(mesh.vertices - analytic, axis=1)))
    ok = cyl <= 1e-9 and dev <= 1e-6
    return _result(5, 10.0, ok,
                   f"cylinder distance {cyl:.2e}, developable pointwise distance {dev:.2e}",
                   start)


# -- 6: discriminant meshes against independent elimination --------------------------


def _eliminate_discriminant(a):
    """Solve F = F_t = 0 for (x2, x3) over exact rationals; u stands for x1.

    F(t, x) = t^a3/a3! + x1 t^(a3-a1)/(a3-a1)! + x2 t^(a3-a2)/(a3-a2)! + x3.
    F_t is linear in x2 with a monomial coefficient, so x2 is one exact
    monomial division and x3 back-substitutes into F.
    """
    a1, a2, a3 = a
    c0 = Poly({
        (a3, 0): Fraction(1, factorial(a3)),
        (a3 - a1, 1): Fraction(1, factorial(a3 - a1)),
    })
    p = Poly.monomial_t(a3 - a2, Fraction(1, factorial(a3 - a2)))
    x2 = (-c0.diff_t()).div_monomial_t(p.diff_t())
    x3 = Poly() - c0 - x2 * p
    return x2, x3


def criterion_6():
    """Discriminant meshes match exact elimination pointwise <= 1e-12 + spot values."""
    start = time.perf_counter()
    t_grid = np.linspace(-1.0, 1.0, 21)
    s_grid = np.linspace(-1.0, 1.0, 9)
    worst = 0.0
    bad = []
    for a in BUILTIN_TYPES:
        x2, x3 = _eliminate_discriminant(a)
        mesh = discriminant_mesh(NormalFormFamily(a), t_grid, s_grid)
        t, s = mesh.params.T
        oracle = np.column_stack([s, x2.evalf(t, s), x3.evalf(t, s)])
        err = float(np.max(np.abs(mesh.vertices - oracle)))
        worst = max(worst, err)
        if err > 1e-12:
            bad.append((a, err))
    spots = (
        ((1, 2, 3), (Fraction(0), Fraction(-1, 2), Fraction(1, 3))),
        ((2, 3, 4), (Fraction(0), Fraction(-1, 6), Fraction(1, 8))),
    )
    for a, expected in spots:
        x2, x3 = _eliminate_discriminant(a)
        got = (Fraction(0), x2.eval(1, 0), x3.eval(1, 0))
        nf = NormalFormFamily(a)
        nf_got = (Fraction(0), nf.x2.eval(1, 0), nf.x3.eval(1, 0))
        if got != expected or nf_got != expected:
            bad.append((a, got, nf_got))
    detail = f"{len(BUILTIN_TYPES)} types, worst pointwise {worst:.2e}, spot values exact"
    if bad:
        detail += f"; first failure {bad[0]}"
    return _result(6, 5.0, not bad, detail, start)


# -- 7: the butterfly bifurcation scan ----------------------------------------------


def criterion_7():
    """kappa3 = t^2 - lambda: one momentary event at (0,0), two branches at +0.1."""
    start = time.perf_counter()
    family = CurvatureFamily.frenet(1, Poly.t() * Poly.t() - Poly.u())
    res = scan_family(family, np.linspace(-1.0, 1.0, 400), np.linspace(-0.2, 0.2, 81))
    problems = []
    if len(res.events) != 1:
        problems.append(f"{len(res.events)} events")
    else:
        ev = res.events[0]
        if not (abs(ev.t) <= 1e-4 and abs(ev.lam) <= 1e-4):
            problems.append(f"event at ({ev.t}, {ev.lam})")
        if ev.dual != (1, 2, 5) or class_of(ev.dual).name != "CuspidalButterfly":
            problems.append(f"event carrier {ev.dual}")
        if ev.type != (3, 4, 5):
            problems.append(f"event type {ev.type}")
    for lam, expected in ((0.1, 2), (-0.1, 0)):
        hits = [s for s in res.strata
                if np.any(np.abs(s.params[:, 0] - lam) < 1e-9)]
        if len(hits) != expected:
            problems.append(f"{len(hits)} branches at lambda={lam}")
        for s in hits:
            if s.type != (2, 3, 4) or dual_type(s.type) != (1, 2, 4):
                problems.append(f"branch type {s.type} at lambda={lam}")
    detail = ("one event at (0,0), carrier (1,2,5); branch count 2/0 at lambda=+/-0.1"
              if not problems else "; ".join(problems))
    return _result(7, 30.0, not problems, detail, start)


# -- 8: integrality residuals on the built-ins ---------------------------------------


def criterion_8():
    """c/d residuals <= 1e-8 on built-ins; doctored witnesses exceed 1e-1."""
    start = time.perf_counter()
    bad = []
    worst_c = worst_d = 0.0
    for name, fc in builtin_clift_examples():
        r = float(np.max(c_integrality_residual(fc)))
        worst_c = max(worst_c, r)
        if r > 1e-8:
            bad.append((name, "c", r))
    for name, fc in builtin_adapted_examples():
        r = float(np.max(d_integrality_residual(fc)))
        worst_d = max(worst_d, r)
        if r > 1e-8:
            bad.append((name, "d", r))
    broken_c, broken_d = violation_witnesses()
    wit_c = float(np.max(c_integrality_residual(broken_c)))
    wit_d = float(np.max(d_integrality_residual(broken_d)))
    if wit_c <= 1e-1:
        bad.append(("witness", "c", wit_c))
    if wit_d <= 1e-1:
        bad.append(("witness", "d", wit_d))
    detail = (f"worst c {worst_c:.2e}, worst d {worst_d:.2e}, "
              f"witnesses {wit_c:.2f}/{wit_d:.2f}")
    if bad:
        detail += f"; first failure {bad[0]}"
    return _result(8, 5.0, not bad, detail, start)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all(out=print):
    """Run every criterion, print one line each, return True iff all passed."""
    all_ok = True
    for fn in CRITERIA:
        res = fn()
        out(res.line())
        all_ok = all_ok and res.ok
    return all_ok
