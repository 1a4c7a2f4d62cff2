"""Sparse polynomials with exact rational coefficients in one or two variables.

The two variables are called ``t`` (curve parameter) and ``u`` (family
parameter).  Coefficients are :class:`fractions.Fraction`, so differentiation
and evaluation at rational arguments incur no rounding; every rank decision
that feeds a type vector can therefore be made exactly.

Floats are deliberately rejected as coefficients.  Decimal strings such as
``"0.1"`` are accepted and parsed exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np


def as_fraction(x):
    """Coerce ints, Fractions and decimal strings to Fraction, reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected (int/Fraction/decimal string), got {type(x).__name__}")


class Poly:
    """Polynomial in (t, u) stored as {(deg_t, deg_u): Fraction}."""

    __slots__ = ("c",)

    def __init__(self, terms=None):
        c = {}
        if terms:
            for key, val in terms.items():
                q = as_fraction(val)
                if q:
                    c[key] = q
        self.c = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, x):
        return cls({(0, 0): as_fraction(x)})

    @classmethod
    def t(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def u(cls):
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def from_t_coeffs(cls, coeffs):
        """Univariate polynomial from coefficients ordered low degree first."""
        return cls({(i, 0): as_fraction(a) for i, a in enumerate(coeffs)})

    @classmethod
    def monomial_t(cls, degree, coeff=1):
        return cls({(degree, 0): as_fraction(coeff)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        c = dict(self.c)
        for k, v in other.c.items():
            s = c.get(k, Fraction(0)) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        out = Poly.__new__(Poly)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        c = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                k = (i1 + i2, j1 + j2)
                s = c.get(k, Fraction(0)) + v1 * v2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        out = Poly.__new__(Poly)
        out.c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        try:
            other = _as_poly(other)
        except TypeError:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    # -- calculus ----------------------------------------------------------

    def diff_t(self):
        return Poly({(i - 1, j): v * i for (i, j), v in self.c.items() if i})

    def diff_u(self):
        return Poly({(i, j - 1): v * j for (i, j), v in self.c.items() if j})

    def integrate_t(self):
        """Antiderivative in t with zero constant term."""
        return Poly({(i + 1, j): v / (i + 1) for (i, j), v in self.c.items()})

    # -- evaluation --------------------------------------------------------

    def eval(self, t, u=0):
        """Exact evaluation at rational arguments."""
        tq, uq = as_fraction(t), as_fraction(u)
        total = Fraction(0)
        for (i, j), v in self.c.items():
            total += v * tq**i * uq**j
        return total

    def evalf(self, t, u=0.0):
        """Float evaluation; t and u may be floats or broadcastable arrays.

        Array powers are taken element by element with Python's float pow
        (numpy's vectorized pow can differ in the last bit), so an array
        result equals the scalar evaluation at every point bit for bit.
        """
        if isinstance(t, np.ndarray) or isinstance(u, np.ndarray):
            terms = (float(v) * _float_pow(t, i) * _float_pow(u, j) for (i, j), v in self.c.items())
            return sum(terms, 0.0)
        total = 0.0
        for (i, j), v in self.c.items():
            total += float(v) * t**i * u**j
        return total

    def subs_u(self, u):
        """Substitute an exact value for u, returning a univariate polynomial."""
        uq = as_fraction(u)
        c = {}
        for (i, j), v in self.c.items():
            s = c.get((i, 0), Fraction(0)) + v * uq**j
            if s:
                c[(i, 0)] = s
            else:
                c.pop((i, 0), None)
        out = Poly.__new__(Poly)
        out.c = c
        return out

    def compose_t(self, g: "Poly") -> "Poly":
        """Substitute t -> g(t) (univariate in t only)."""
        if self.deg_u() > 0:
            raise ValueError("compose_t requires a univariate polynomial in t")
        result = Poly()
        for i, a in enumerate(self.t_coeffs()):
            if a:
                result = result + Poly.const(a) * g**i
        return result

    # -- structure ---------------------------------------------------------

    def t_coeffs(self):
        """Dense coefficient list in t, low degree first (univariate only)."""
        if self.deg_u() > 0:
            raise ValueError("polynomial depends on u; substitute first")
        n = self.deg_t()
        out = [Fraction(0)] * (n + 1)
        for (i, _), v in self.c.items():
            out[i] = v
        return out

    def t_coeff_floats(self):
        return [float(q) for q in self.t_coeffs()]

    def deg_t(self):
        return max((i for (i, _) in self.c), default=0)

    def deg_u(self):
        return max((j for (_, j) in self.c), default=0)

    def is_zero(self):
        return not self.c

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        bits = []
        for (i, j) in sorted(self.c):
            v = self.c[(i, j)]
            term = str(v)
            if i:
                term += f"*t^{i}" if i > 1 else "*t"
            if j:
                term += f"*u^{j}" if j > 1 else "*u"
            bits.append(term)
        return "Poly(" + " + ".join(bits) + ")"


def _float_pow(x, k):
    """x**k, taken one element at a time through Python's float pow for arrays."""
    if not isinstance(x, np.ndarray):
        return x**k
    return np.array([v**k for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    return Poly.const(as_fraction(x))


ZERO = Poly()
ONE = Poly.const(1)


def poly_det(matrix):
    """Determinant of a small square matrix of Poly entries (cofactor expansion)."""
    m = len(matrix)
    if m == 1:
        return matrix[0][0]
    total = Poly()
    sign = 1
    for col in range(m):
        entry = matrix[0][col]
        if not entry.is_zero():
            minor = [[row[c] for c in range(m) if c != col] for row in matrix[1:]]
            total = total + Poly.const(sign) * entry * poly_det(minor)
        sign = -sign
    return total


def monomial_over_factorial(degree):
    """t^degree / degree! as an exact polynomial."""
    return Poly.monomial_t(degree, Fraction(1, factorial(degree)))


def real_roots_in_window(coeffs, lo, hi, tol=1e-12):
    """Real roots of a univariate float-coefficient polynomial inside [lo, hi].

    ``coeffs`` is low-degree-first.  Roots from the companion matrix are
    filtered by imaginary part and window, then deduplicated.
    """
    arr = np.asarray([float(a) for a in coeffs], dtype=float)
    nz = np.nonzero(np.abs(arr) > 0.0)[0]
    if len(nz) == 0:
        return None  # identically zero
    arr = arr[: nz[-1] + 1]
    if len(arr) == 1:
        return []
    scale = np.max(np.abs(arr))
    roots = np.roots(arr[::-1] / scale)
    span = abs(hi - lo)
    out = []
    for z in roots:
        if abs(z.imag) < 1e-7 * max(1.0, abs(z.real)) + 1e-10:
            x = float(z.real)
            if lo - 1e-9 * span <= x <= hi + 1e-9 * span:
                out.append(min(max(x, lo), hi))
    out.sort()
    merged = []
    for x in out:
        if merged and abs(x - merged[-1]) < tol:
            continue
        merged.append(x)
    return merged


def polish_root(poly: Poly, x0: float, u=None, iterations=60):
    """Refine a root of a univariate (or u-substituted) polynomial by Newton steps.

    The derivative is taken exactly before float evaluation, so the iteration
    is limited only by double precision.  Falls back to returning the best
    iterate if Newton stalls.
    """
    p = poly if u is None else poly.subs_u(u)
    dp = p.diff_t()
    x = float(x0)
    best, best_val = x, abs(p.evalf(x))
    for _ in range(iterations):
        f = p.evalf(x)
        fp = dp.evalf(x)
        if fp == 0.0:
            break
        step = f / fp
        x -= step
        val = abs(p.evalf(x))
        if val < best_val:
            best, best_val = x, val
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return best
