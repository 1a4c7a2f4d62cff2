"""Sparse polynomials with exact rational coefficients in one or two variables.

The two variables are called ``t`` (curve parameter) and ``u`` (family
parameter).  Coefficients are :class:`fractions.Fraction`, so differentiation
and evaluation at rational arguments incur no rounding; every rank decision
that feeds a type vector can therefore be made exactly.

Floats are deliberately rejected as coefficients.  Decimal strings such as
``"0.1"`` are accepted and parsed exactly.

The module also holds the univariate root toolkit the family scans use:
division, gcd and square-free parts of Fraction coefficient lists, a Newton
polish, and the polished real roots of a square-free polynomial in a window.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
        result equals the scalar evaluation at every point bit for bit.  With
        an array argument the result is an array of the broadcast shape, also
        for the zero polynomial.
        """
        if isinstance(t, np.ndarray) or isinstance(u, np.ndarray):
            terms = (float(v) * _float_pow(t, i) * _float_pow(u, j) for (i, j), v in self.c.items())
            return sum(terms, np.zeros(np.broadcast_shapes(np.shape(t), np.shape(u))))
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


# -- univariate root toolkit (Fraction coefficient lists, low degree first) --


def trim(coeffs):
    """Copy of a coefficient list with its trailing zeros dropped."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def integer_coeffs(coeffs):
    """The Fraction coefficient list times the lcm of its denominators, as ints."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs]


def vanishes_at(ints, x):
    """Whether the integer coefficient list (low degree first) vanishes at Fraction x.

    With x = p/q in lowest terms, the homogeneous Horner sum of a_i p^i q^(n-i)
    is p(x) times q^n, all in Python ints.
    """
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for a in reversed(ints):
        acc = acc * p + a * qk
        qk *= q
    return acc == 0


def poly_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists (low degree first)."""
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        if len(r) < len(b) + k:
            continue
        c = r[len(b) + k - 1] / lead
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                r[k + i] -= c * bi
        del r[len(b) + k - 1]
    return q, trim(r)


def poly_gcd(a, b):
    """Monic greatest common divisor of two Fraction coefficient lists."""
    a, b = trim(a), trim(b)
    while b:
        _, rem = poly_divmod(a, b)
        a, b = b, rem
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree(coeffs):
    """Square-free part of a Fraction coefficient list (monic, low degree first)."""
    p = trim(coeffs)
    if len(p) <= 1:
        return p
    dp = [k * c for k, c in enumerate(p)][1:]
    g = poly_gcd(p, dp)
    if len(g) <= 1:
        lead = p[-1]
        return [c / lead for c in p]
    q, rem = poly_divmod(p, g)
    if rem:
        raise ArithmeticError("square-free division left a remainder")
    q = trim(q)
    lead = q[-1]
    return [c / lead for c in q]


def newton(p: Poly, x, iterations, rel_tol):
    """Newton iterates on a univariate Poly from float x; returns the last one.

    The derivative is taken exactly once.  Stops at a zero derivative or once
    a step falls below rel_tol * max(1, |x|).
    """
    dp = p.diff_t()
    for _ in range(iterations):
        fp = dp.evalf(x)
        if fp == 0.0:
            break
        step = p.evalf(x) / fp
        x -= step
        if abs(step) < rel_tol * max(1.0, abs(x)):
            break
    return x


def real_roots_squarefree(sq, lo, hi):
    """Polished real roots in [lo, hi] of a square-free Fraction coefficient list.

    Companion-matrix roots with a small imaginary part are Newton-polished,
    clamped into the window and deduplicated.
    """
    if len(sq) <= 1:
        return []
    arr = np.array([float(c) for c in sq])
    scale = np.max(np.abs(arr))
    roots = np.roots(arr[::-1] / scale)
    poly = Poly.from_t_coeffs(sq)
    span = abs(hi - lo)
    out = []
    for z in roots:
        if abs(z.imag) > 1e-7 * max(1.0, abs(z.real)) + 1e-10:
            continue
        x = newton(poly, float(z.real), 60, 1e-16)
        if lo - 1e-9 * span <= x <= hi + 1e-9 * span:
            out.append(min(max(x, lo), hi))
    out.sort()
    merged = []
    for x in out:
        if merged and abs(x - merged[-1]) < 1e-12 * max(1.0, abs(x)):
            continue
        merged.append(x)
    return merged
