"""Finite-type detection and the codimension calculus on type vectors.

A curve gamma in an (n+2)-dimensional ambient space is *of finite type* at t0
when the jet matrices A_r = (gamma, gamma', ..., gamma^(r)) eventually reach
full rank n+2.  The type vector a = (a_1, ..., a_{n+1}) records the minimal
orders at which the rank jumps to 2, 3, ..., n+2.

Two rank back-ends are provided: an exact fraction-free path and a
singular-value path.  The exact path ranks integer jet columns, and
polynomial columns at a rational parameter, by Bareiss elimination on plain
ints (``exact_rank_profile``), and polynomial columns at an irrational
algebraic parameter over Z[t]/(m).  The singular-value path takes
everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegeneracyError, DimensionMismatch, DomainError, FiniteTypeError
from .ratpoly import _u_div, _u_mul, _u_sub, has_root_in, poly_gcd, pseudo_divmod, values_at

DEFAULT_RANK_TOL = 1e-8
RANK_GAP_MIN = 1e3


def validate_type_vector(a):
    a = tuple(int(x) for x in a)
    if len(a) < 1:
        raise DimensionMismatch("type vector must have at least one entry")
    if a[0] < 1 or any(x >= y for x, y in zip(a, a[1:])):
        raise DimensionMismatch(f"type vector must be strictly increasing naturals, got {a}")
    return a


# -- rank profiles ------------------------------------------------------------


def exact_rank_profile(columns, dim=math.inf):
    """Prefix ranks, up to ``dim``, of integer columns, by Bareiss's fraction-free elimination.

    Each column is reduced by the pivot rows before it, in order, and every
    step's division by the previous pivot is exact (Bareiss, Math. Comp. 22,
    1968), so the entries stay minors of the matrix and no content is taken.
    """
    basis, ranks = [], []
    for v in columns:
        prev = 1
        for row, p in basis:
            d, e = row[p], v[p]
            if e:
                v = [(d * x - e * y) // prev for x, y in zip(v, row)]
            elif d != prev:
                v = [d * x // prev for x in v]
            prev = d
        for i, x in enumerate(v):
            if x:
                basis.append((v, i))
                break
        ranks.append(len(basis))
        if len(basis) == dim:
            break
    return ranks


def algebraic_rank_profile(columns, dim, root):
    """Prefix ranks, up to ``dim``, of integer polynomial columns at an algebraic t*.

    ``root`` is (m, a, b): t* is the one root of the square-free integer list
    m in the open interval (a, b), or a == b == t* with m linear.  A column
    is a list of integer coefficient lists in t with one positive scale.  At
    a rational t* = p/q each column is evaluated, times q to its degree, and
    ranked on plain ints (``exact_rank_profile``).  Otherwise the
    elimination is fraction-free over Z[t]/(m) and scales whole columns, so
    each prefix rank is the rank at t*.  An entry is zero at t* when its gcd
    with m vanishes there: a proper gcd splits m, and the factor with its
    root in (a, b) goes on (dynamic evaluation, "D5": Della Dora, Dicrescenzo
    and Duval, EUROCAL 1985).
    """
    m, a, b = root
    if len(m) == 2:
        return exact_rank_profile((values_at(col, -m[0], m[1]) for col in columns), dim)
    basis, ranks = [], []
    for col in columns:
        # every entry of a column is reduced mod m with the same steps of
        # pseudo-division, so the column keeps one scale
        n = len(m) - 1
        steps = max(max(map(len, col)) - n, 0)
        v = [pseudo_divmod(x, m, steps)[1] for x in col]
        for row, p in basis:
            if v[p]:
                v = [_u_sub(pseudo_divmod(_u_mul(row[p], x), m, n - 1)[1],
                            pseudo_divmod(_u_mul(v[p], y), m, n - 1)[1]) for x, y in zip(v, row)]
        content = math.gcd(*(c for x in v for c in x))
        v = [[c // content for c in x] for x in v]
        for i, x in enumerate(v):
            g = poly_gcd(x, m) if x and len(m) > 2 else [1]
            if len(g) > 1:
                f = g if has_root_in(g, a, b) else _u_div(m, g)
                steps = len(m) - len(f)
                basis = [([pseudo_divmod(y, f, steps)[1] for y in row], p) for row, p in basis]
                v, m = [pseudo_divmod(y, f, steps)[1] for y in v], f
            if v[i]:
                basis.append((v, i))
                break
        ranks.append(len(basis))
        if len(basis) == dim:
            break
    return ranks


def float_rank_profile(matrix, rank_tol=DEFAULT_RANK_TOL):
    """(ranks, min_gap) over the column prefixes of a float matrix.

    Each prefix is decided by the singular values of its column-normalized
    copy.  Scaling rows and columns changes no rank, so every column and then
    every row is first divided by its max-abs entry: no norm overflows, and a
    point far from the origin (entries of 1e200 beside entries of 1) does not
    swamp the rest.  Ranks are forced monotone non-decreasing with unit steps,
    which is what prefix ranks of a genuine jet matrix satisfy; min_gap is the
    smallest accepted/rejected singular value ratio seen at any truncation
    decision.
    """
    matrix = np.asarray(matrix, dtype=float)
    for axis in (0, 1):
        scale = np.max(np.abs(matrix), axis=axis, keepdims=True)
        matrix = matrix / np.where(scale > 0, scale, 1.0)
    ranks, min_gap, prev = [], np.inf, 0
    for r in range(matrix.shape[1]):
        m = matrix[:, : r + 1]
        norms = np.linalg.norm(m, axis=0)
        sv = np.linalg.svd(m / np.where(norms > 0, norms, 1.0), compute_uv=False)
        rank = int(np.sum(sv > rank_tol * sv[0]))
        if 0 < rank < len(sv) and sv[rank] != 0:
            gap = sv[rank - 1] / sv[rank]
        else:
            gap = np.inf
        rank = max(prev, min(rank, prev + 1))
        if rank < r + 1 and gap < min_gap:
            min_gap = gap
        ranks.append(rank)
        prev = rank
    return ranks, float(min_gap)


# -- type detection -----------------------------------------------------------


@dataclass
class TypeDetection:
    """Full record of a finite-type detection."""

    type: tuple
    ranks: list
    mode: str  # "exact" or "float"
    confidence: str  # "exact", or "high" / "low" (float path gap certificate)
    min_gap: float


def _ranks_to_type(ranks, dim, r_max):
    if not ranks or ranks[0] == 0:
        raise DegeneracyError(0)
    a = []
    for target in range(2, dim + 1):
        hits = [r for r, rk in enumerate(ranks) if rk == target]
        if not hits:
            raise FiniteTypeError(max(ranks), r_max)
        a.append(hits[0])
    return tuple(a)


def detect_type_report(curve, t, rank_tol=DEFAULT_RANK_TOL):
    """Detect the type vector at t along with the evidence used.

    Both curve kinds have exact jets, so t's type alone picks the path: an
    exact t (an int, a Fraction or a decimal string) takes the exact one,
    anything else the float one; ``mode`` on the result says which ran.
    """
    if isinstance(t, (float, np.floating)) and not np.isfinite(t):
        raise DomainError(f"type detection needs a finite parameter, got t={t!r}")
    dim = curve.dim
    r_max = dim + 4  # n + 6
    mode = "exact" if isinstance(t, (int, Fraction, str)) else "float"
    if mode == "exact":
        ranks, min_gap = exact_rank_profile(curve.jet_exact(t, r_max)), np.inf
    else:
        ranks, min_gap = float_rank_profile(curve.jet(t, r_max), rank_tol)
    a = _ranks_to_type(ranks, dim, r_max)
    if mode == "exact":
        confidence = "exact"
    else:
        confidence = "high" if min_gap >= RANK_GAP_MIN else "low"
    return TypeDetection(a, ranks, mode, confidence, float(min_gap))


def detect_type(curve, t, rank_tol=DEFAULT_RANK_TOL):
    """Type vector (a_1, ..., a_{n+1}) of the curve at t."""
    return detect_type_report(curve, t, rank_tol=rank_tol).type


# -- codimension calculus -----------------------------------------------------


def schubert_number(a):
    """s(a) = sum_i (a_i - i)."""
    a = validate_type_vector(a)
    return sum(ai - i for i, ai in enumerate(a, start=1))


def codim_adapted(a):
    """Codimension within adapted frame families: sum_{i>=2} (a_i - i)."""
    a = validate_type_vector(a)
    return sum(ai - i for i, ai in enumerate(a, start=1) if i >= 2)


def codim_osculating(a):
    """Codimension within osculating-frame families: a_{n+1} - (n+1)."""
    a = validate_type_vector(a)
    return a[-1] - len(a)


def dual_type(a):
    """Arnold-Scherbak dual: (a_{n+1}-a_n, ..., a_{n+1}-a_1, a_{n+1})."""
    a = validate_type_vector(a)
    top = a[-1]
    return tuple(top - x for x in reversed(a[:-1])) + (top,)


def enumerate_generic_types(n, budget, mode="ordinary"):
    """All type vectors of length n+1 whose mode-codimension is <= budget.

    Sorted lexicographically.  Each mode's codimension sums a_i - i over the
    entries it counts, and a prefix is dropped once its cheapest completion
    (each later entry one above the last, so each later a_j - j equals the
    last a_i - i) is over budget; each prefix searched leads to at least one
    output.  The search runs on an explicit stack that carries each prefix's
    codimension, and the prefix itself lives in one shared list, so the work
    is linear in the output.
    """
    if n < 1:
        raise DimensionMismatch("need n >= 1")
    if mode not in ("ordinary", "adapted", "osculating"):
        raise DimensionMismatch(f"unknown enumeration mode {mode!r}")
    size = n + 1
    weight = [1] * size  # 1 where a_i - i counts towards the mode's codimension
    if mode == "adapted":
        weight[0] = 0
    elif mode == "osculating":
        weight[:n] = [0] * n
    rest = weight[:]  # rest[i]: the counted entries from index i on (0-based)
    for i in range(size - 2, -1, -1):
        rest[i] += rest[i + 1]
    a, out = [0] * size, []
    # (index, value, codimension of a[:index]); a value is pushed only if the
    # cheapest completion through it, cost + rest[index] (value - index - 1), is within budget
    stack = [(0, v, 0) for v in range(1 + budget // rest[0], 0, -1)]
    while stack:
        i, v, cost = stack.pop()
        a[i] = v
        cost += weight[i] * (v - i - 1)
        if i + 1 == size:
            out.append(tuple(a))
        else:  # pushed largest first, popped smallest first: lexicographic order
            stack.extend((i + 1, w, cost) for w in range(i + 2 + (budget - cost) // rest[i + 1], v, -1))
    return out
