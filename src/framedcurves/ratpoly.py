"""Exact polynomials with rational coefficients in one or two variables.

The two variables are called ``t`` (curve parameter) and ``u`` (family
parameter).  A :class:`Poly` is integer t-rows (below) over one positive
denominator, so differentiation and evaluation at rational arguments incur
no rounding; every rank decision that feeds a type vector is exact.  Floats
are rejected as coefficients; decimal strings such as ``"0.1"`` are exact.

The module also holds the one root toolkit the family scans use, and every
integer decision of the exact layer.  It speaks one format: integer
coefficient lists, low degree first, and integer t-rows, a Poly's own
numerator.  ``pseudo_divmod`` is the one pseudo-division of lists.
``poly_gcd`` is the one gcd of lists, the heuristic gcd: the integer gcd
of two values, read back as a polynomial and checked by pseudo-division;
it also gives square-free parts.  ``squarefree_t`` takes the square-free
part in t of t-rows and hands on its chain, the subresultants over Z[u] of
that part and its t-derivative, built once: the last is their resultant in
t, and ``line_gcd_split`` walks them to split a set of u-roots by the
primitive gcd of the t-lines with their derivatives.
Real roots are isolated exactly by Descartes' rule and narrowed by certified
Newton jumps, with boxes as dyadic integers; there is no float root finder.
A root is a record (m, a, b): the one root of the square-free integer list m
in the open interval (a, b), or a == b, the root itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest


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
    """Polynomial in (t, u): integer t-rows over one positive denominator.

    ``rows`` is the numerator as a t-row list (see the bivariate toolkit
    below) with no empty top row, so zero is [].  ``den`` is a positive int
    with gcd(den, every coefficient) = 1, 1 for zero, so each value has
    exactly one form.  Neither is changed after construction, so ``evalf``
    keeps its float table in the lazily filled ``_table``.
    """

    __slots__ = ("rows", "den", "_table")

    def __init__(self, terms=None):
        """The sum of c t^i u^j over a {(i, j): c} map, each c exact (see ``as_fraction``)."""
        terms = [(key, as_fraction(v)) for key, v in terms.items()] if terms else []
        den = math.lcm(*[v.denominator for _, v in terms])
        rows = []
        for (i, j), v in terms:
            if v:
                rows += [[]] * (i + 1 - len(rows))
                row = rows[i] = rows[i] + [0] * (j + 1 - len(rows[i]))
                row[j] = v.numerator * (den // v.denominator)
        self.rows, self.den = rows, den if rows else 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, x):
        return cls.monomial_t(0, x)

    @classmethod
    def t(cls):
        return _poly([[], [1]])

    @classmethod
    def u(cls):
        return _poly([[0, 1]])

    @classmethod
    def from_t_coeffs(cls, coeffs):
        """Univariate polynomial from coefficients ordered low degree first."""
        coeffs = [as_fraction(a) for a in coeffs]
        den = math.lcm(*(a.denominator for a in coeffs))
        return _poly([[a.numerator * (den // a.denominator)] if a else [] for a in coeffs], den)

    @classmethod
    def monomial_t(cls, degree, coeff=1):
        q = as_fraction(coeff)
        return _poly([[]] * degree + [[q.numerator] if q else []], q.denominator)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return _sum(self, _as_poly(other))

    __radd__ = __add__

    def __neg__(self):
        return _poly([[-c for c in row] for row in self.rows], self.den)

    def __sub__(self, other):
        return _sum(self, _as_poly(other), -1)

    def __rsub__(self, other):
        return _sum(_as_poly(other), self, -1)

    def __mul__(self, other):
        other = _as_poly(other)
        a, b = self.rows, other.rows
        out = [[] for _ in range(len(a) + len(b) - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x and y:
                    acc = out[i + j]
                    if len(acc) < len(x) + len(y) - 1:
                        acc += [0] * (len(x) + len(y) - 1 - len(acc))
                    for k, c in enumerate(x):
                        for m, d in enumerate(y, k):
                            acc[m] += c * d
        return _poly([trim(row) for row in out], self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        try:
            other = _as_poly(other)
        except TypeError:
            return NotImplemented
        return self.den == other.den and self.rows == other.rows

    def __hash__(self):
        return hash((self.den, tuple(map(tuple, self.rows))))

    # -- calculus ----------------------------------------------------------

    def diff_t(self):
        return _poly(slope_rows(self.rows), self.den)

    def diff_u(self):
        return _poly([[j * c for j, c in enumerate(row)][1:] for row in self.rows], self.den)

    # -- evaluation --------------------------------------------------------

    def eval(self, t, u=0):
        """Exact evaluation at rational arguments."""
        tq, uq = as_fraction(t), as_fraction(u)
        line = rows_at(self.rows, uq)
        return Fraction(_horner(line, tq.numerator, tq.denominator),
                        self.den * uq.denominator ** self.deg_u() * tq.denominator ** max(len(line) - 1, 0))

    def evalf(self, t, u=0.0):
        """Float evaluation by Horner's rule in t, over rows taken by Horner in u.

        t and u may be floats or broadcastable arrays.  Scalars and arrays go
        through the same operations, so an array result equals the scalar
        evaluation at every point bit for bit; it has the broadcast shape, also
        for the zero polynomial.  No power |t|^i is formed on its own, so a
        small term c t^i stays finite past |t|^i's float range.  The table
        entry of a coefficient c is c / den, correctly rounded; one beyond the
        float range raises OverflowError.
        """
        table = getattr(self, "_table", None)
        if table is None:  # the dense table, highest degrees first
            n, m = max(len(self.rows) - 1, 0), self.deg_u()
            table = [[0.0] * (m + 1) for _ in range(n + 1)]
            for i, row in enumerate(self.rows):
                for j, c in enumerate(row):
                    if c:
                        table[n - i][m - j] = c / self.den
            self._table = table  # only once every coefficient has its float
        total = 0.0
        for row in table:
            value = 0.0
            for a in row:
                value = value * u + a
            total = total * t + value
        return total

    def subs_u(self, u):
        """Substitute an exact value for u, returning a univariate polynomial."""
        uq = as_fraction(u)
        return _poly([[c] if c else [] for c in rows_at(self.rows, uq)],
                     self.den * uq.denominator ** self.deg_u())

    def compose_t(self, g: "Poly") -> "Poly":
        """Substitute t -> g(t) (univariate in t only)."""
        result = Poly()
        for a in reversed(self.t_coeffs()):
            result = result * g + a
        return result

    # -- structure ---------------------------------------------------------

    def t_coeffs(self):
        """Dense coefficient list in t, low degree first (univariate only)."""
        if self.deg_u() > 0:
            raise ValueError("polynomial depends on u; substitute first")
        return [Fraction(row[0], self.den) if row else Fraction(0) for row in self.rows or [[]]]

    def deg_u(self):
        return max(map(len, self.rows), default=1) - 1

    def is_zero(self):
        return not self.rows

    def terms(self):
        """The nonzero terms as ((i, j), c) pairs, c the Fraction of t^i u^j, in row order."""
        return [((i, j), Fraction(c, self.den)) for i, row in enumerate(self.rows) for j, c in enumerate(row) if c]

    def div_monomial_t(self, m):
        """The exact quotient by m = c t^k, taken on the integer rows; ArithmeticError when m
        is not such a monomial or the quotient is not a polynomial."""
        k = len(m.rows) - 1
        if k < 0 or any(m.rows[:-1]) or len(m.rows[-1]) != 1:
            raise ArithmeticError("divisor must be a monomial in t")
        if any(self.rows[:k]):
            raise ArithmeticError("monomial division is not exact")
        c = m.rows[-1][0]  # self / m = rows[k:] m.den / (den c), over a positive denominator
        scale = m.den if c > 0 else -m.den
        return _poly([[scale * x for x in row] for row in self.rows[k:]], self.den * abs(c))

    def __repr__(self):
        def power(x, e):
            return "" if e == 0 else f"*{x}" if e == 1 else f"*{x}^{e}"

        bits = [f"{c}{power('t', i)}{power('u', j)}" for (i, j), c in self.terms()]
        return "Poly(" + (" + ".join(bits) or "0") + ")"


def _poly(rows, den=1):
    """The Poly of a fresh list of trimmed integer rows over a positive int den, in its one form."""
    while rows and not rows[-1]:
        rows.pop()
    g = den
    for row in rows:
        if g == 1:
            break
        if row:
            g = math.gcd(g, *row)
    out = Poly.__new__(Poly)
    out.rows = [[c // g for c in row] for row in rows] if g > 1 else rows
    out.den = den // g if rows else 1
    return out


def _sum(a, b, sign=1):
    """a + sign b for Polys; a row of a kept as it is is shared, not copied, as no Poly changes its rows."""
    den = math.lcm(a.den, b.den)
    x, y = den // a.den, sign * (den // b.den)
    rows = []
    for r, s in zip_longest(a.rows, b.rows, fillvalue=[]):
        if s or x != 1:
            r = trim([x * c + y * d for c, d in zip_longest(r, s, fillvalue=0)])
        rows.append(r)
    return _poly(rows, den)


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    return Poly.const(x)


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


# -- univariate root toolkit (integer coefficient lists, low degree first) ---


def trim(coeffs):
    """Copy of a coefficient list with its trailing zeros dropped."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _horner(ints, p, q):
    """q^n times the integer coefficient list (low degree first, degree n) at p/q.

    The homogeneous Horner sum of a_i p^i q^(n-i), all in Python ints.
    """
    acc, qk = 0, 1
    for a in reversed(ints):
        acc = acc * p + a * qk
        qk *= q
    return acc


def _sign(v):
    return (v > 0) - (v < 0)


def values_at(lists, p, q):
    """Integer coefficient lists at p/q, each times q to the top degree among them, as ints."""
    n = max(map(len, lists))
    return [_horner(x, p, q) * q ** (n - len(x)) for x in lists]


def vanishes_at(ints, x):
    """Whether the integer coefficient list (low degree first) vanishes at Fraction x."""
    return _horner(ints, x.numerator, x.denominator) == 0


def taylor_shift(ints, v, d=1):
    """Coefficients of d^n f((v + x)/d), f the integer coefficient list of degree n.

    Lists low degree first, in Python ints.  With d = 1 it is f(x + v); the
    x^k coefficient is d^(n-k) f^(k)(v/d) / k!, so one shift gives every
    derivative at v/d.
    """
    n = len(ints) - 1
    a = [c * d ** (n - i) for i, c in enumerate(ints)] if d != 1 else list(ints)
    if not v:  # the identity shift, as at t = 0
        return a
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += v * a[j + 1]
    return a


def _descartes_count(a):
    """Sign variations of (x + 1)^n a(1/(x + 1)): bounds the roots of a in (0, 1), exact for 0 and 1."""
    signs = [c > 0 for c in taylor_shift(a[::-1], 1) if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _sign_beside(ints, p, q, side=1):
    """Sign of the square-free integer list just right (side 1) or left (side -1) of p/q, q > 0.

    The value's sign, else, at a root, the slope's times ``side``.
    """
    return _sign(_horner(ints, p, q)) or side * _sign(_horner([i * c for i, c in enumerate(ints)][1:], p, q))


def _nearest_rational(n, d, bound):
    """(p, q) with p/q == Fraction(n, d).limit_denominator(bound), d > 0, in ints alone.

    The last convergent of n/d's continued fraction with q <= bound, or the
    semiconvergent beyond it when that is nearer (a tie takes the convergent).
    """
    den, p0, q0, p1, q1 = d, 0, 1, 1, 0
    while d and q0 + (a := n // d) * q1 <= bound:
        p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d
    k = (bound - q0) // q1
    return (p1, q1) if not d or 2 * d * (q0 + k * q1) <= den else (p0 + k * p1, q0 + k * q1)


def _dyadic(m, s):
    """m 2^s as (numerator, denominator), the denominator a power of two."""
    return (m << s, 1) if s >= 0 else (m, 1 << -s)


def _floor_scaled(n, d, s):
    """floor(n / (d 2^s)) for ints n and d != 0."""
    return (n << -s) // d if s < 0 else n // (d << s)


def _cmp(m, s, x):
    """-1, 0 or 1 as m 2^s is below, at or above x = (numerator, denominator), denominator > 0."""
    a, b = ((m << s) * x[1], x[0]) if s >= 0 else (m * x[1], x[0] << -s)
    return (a > b) - (a < b)


def _rounded(n, d):
    """n / d, d > 0, as the nearest double: an infinity beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return math.copysign(math.inf, n)


def _float_box(floats, m, s, j_min):
    """(lead, j): the box (lead 2^j, (lead + 1) 2^j), j in [j_min, s), of 50 bits around a float root.

    Up to eight Newton steps on ``floats``, the integer list scaled into the
    float range, from the midpoint of the box (m 2^s, (m + 1) 2^s) give the
    root; (None, s) when they meet a zero slope or leave the float range.  One
    exact Newton step from the box's midpoint then reaches the 2^-100 stop.
    """
    x = _rounded(*_dyadic(2 * m + 1, s - 1))
    for _ in range(8):
        f = df = 0.0
        for a in reversed(floats):  # Horner's rule for f and f' at once
            df = df * x + f
            f = f * x + a
        step = f / df if df else math.inf
        x -= step
        if not abs(step) > 2.0**-40 * abs(x):  # the error left is about step^2
            break
    j = max(math.frexp(x)[1] - 51, j_min) if math.isfinite(x) else s
    return (math.floor(math.ldexp(x, -j)), j) if j < s else (None, s)


def isolate_real_roots(ints, lo, hi):
    """The real roots in [lo, hi] of a square-free integer coefficient list, as sorted records (m, a, b).

    A record depends on the list and its root, never on the window.  With
    2^rho >= 2 max_i |a_(n-i) / a_n|^(1/i), Fujiwara's bound (Tohoku Math. J.
    10, 1916) from bit lengths, Descartes' rule of signs with bisection
    (Collins and Akritas) isolates the roots exactly on the dyadic boxes
    (m 2^s, (m + 1) 2^s), starting from those of one spacing that meet
    [lo, hi] cut to [-2^rho, 2^rho]: the largest 2^s below hi - lo, at most
    2^rho and at least 2^-100 of the larger |end|, so no start is finer than
    a record.  A box that misses [lo, hi], or whose root lies outside it, is
    dropped.  A rational root x = p/q is ([-p, q], x, x) where a box end or a
    tested midpoint hits it, or where it is the rational nearest its box's
    midpoint with denominator below (4 h)^-1/2, h the half-width (a rational
    root that simple always is).  Any other root is (ints, a, b), the one
    root of ints in the open box of the first spacing at which the box is
    at most 2^-100 of its points and both ends round to one double (Ziv's
    test, ACM TOMS 17, 1991): float((a + b) / 2) is the root correctly
    rounded.  Certified Newton jumps reach that box; the first starts from a
    few float Newton steps, but only exact signs decide a box.
    """
    top = trim(ints)
    if lo > hi or not top:
        return []
    n, lead = len(top) - 1, abs(top[-1]).bit_length()
    rho = 1 + max((-((lead - 1 - abs(a).bit_length()) // i) for i, a in zip(range(n, 0, -1), top) if a), default=0)
    (ln, ld), (hn, hd) = lower, upper = lo.as_integer_ratio(), hi.as_integer_ratio()
    w, d = hn * ld - ln * hd, hd * ld  # hi - lo = w/d, and 2^(s-1) < w/d < 2^(s+1)
    s = w.bit_length() - d.bit_length()
    size = max(abs(ln) * hd, abs(hn) * ld)  # the larger |end| is size/d
    s = min(rho, max(s - (w << max(-s, 0) <= d << max(s, 0)), size.bit_length() - d.bit_length() - 100))
    slope = [i * c for i, c in enumerate(top)][1:]
    scale = 1 << max(0, max(map(abs, top)).bit_length() - 1000)
    floats = [c / scale for c in top]
    # nodes (p, m, s): p(x) = f(2^s (m + x)), times 2^(-s n) for s < 0, is the list
    # on the box (m 2^s, (m + 1) 2^s) rescaled to [0, 1]; the left child is popped
    # first, so the records come out in order
    edge, scaled = 1 << (rho - s), [c << (s * i - min(s, 0) * n) for i, c in enumerate(top)]
    first, last = max(_floor_scaled(ln, ld, s), -edge), min(-_floor_scaled(-hn, hd, s), edge) - 1
    at_hi = _cmp(last + 1, s, upper) == 0  # hi ends the last box whose open interval meets [lo, hi]
    out, stack = [], [(taylor_shift(scaled, m), m, s) for m in range(last, first - 1, -1)]
    while stack:
        p, m, s = stack.pop()
        if p[0] == 0:  # a root at the box's left end
            if _cmp(m, s, lower) >= 0 >= _cmp(m, s, upper):
                x = Fraction(*_dyadic(m, s))
                out.append(([-x.numerator, x.denominator], x, x))
            p = p[1:]
        if not _cmp(m, s, upper) < 0 < _cmp(m + 1, s, lower):
            continue
        count = _descartes_count(p)
        if count > 1:
            k = len(p) - 1
            left = [a << (k - i) for i, a in enumerate(p)]
            stack.append((taylor_shift(left, 1), 2 * m + 1, s - 1))
            stack.append((left, 2 * m, s - 1))
        if count != 1:
            continue
        if _cmp(m, s, lower) < 0 or _cmp(m + 1, s, upper) > 0:  # the box sticks out: is its root in [lo, hi]?
            a, b, lo, hi = Fraction(*_dyadic(m, s)), Fraction(*_dyadic(m + 1, s)), Fraction(*lower), Fraction(*upper)
            if not (any(a < x < b and vanishes_at(top, x) for x in (lo, hi))
                    or max(a, lo) < min(b, hi) and has_root_in(top, max(a, lo), min(b, hi))):
                continue
        # narrow the box (Abbott's quadratic interval refinement, ACM Comm. Computer
        # Algebra 48, 2014): the box of spacing 2^(s - N) around a float root, then
        # around the Newton step from the midpoint (or at 0, in a box that ends
        # there), is taken when the list changes sign across it, the box bisection
        # reaches, and N doubles (from 50); else N halves and the midpoint's sign
        # bisects.  No jump passes the spacing where min(|m|, |m + 1|) reaches 2^100;
        # past it each step bisects until the ends round alike
        s_m, jump, sv = 0, 0, 1  # s_m: the sign just right of m 2^s, once known
        while True:
            stop = s + abs(2 * m + 1).bit_length() - 102  # min(|m|, |m + 1|) reaches 2^100 there
            if stop >= s:
                if _rounded(*_dyadic(m, s)) == _rounded(*_dyadic(m + 1, s)):
                    break
                stop = s - 1
            if jump:
                x, y = _dyadic(2 * m + 1, s - 1)
                value = _horner(top, x, y)
                sv = _sign(value)
                if not sv:
                    break
                j = max(s - jump, stop)
                if m in (0, -1):  # gallop toward 0: beside roots clustered there, Newton creeps
                    lead = m
                else:  # around x - f(x)/f'(x), the midpoint x = x/y
                    dq = _horner(slope, x, y)
                    lead = _floor_scaled(x * dq - value, y * dq, j) if dq else None
            else:
                lead, j = _float_box(floats, m, s, stop)
            s_lead = lead is not None and (m << (s - j)) <= lead < ((m + 1) << (s - j)) and _sign_beside(
                top, *_dyadic(lead, j))  # one-sided, as an end may be another root, 0 say
            if s_lead and _sign_beside(top, *_dyadic(lead + 1, j), -1) == -s_lead:
                m, s, s_m, jump = lead, j, s_lead, 2 * jump or 50
            elif jump:
                s_m = s_m or _sign_beside(top, *_dyadic(m, s))
                m, s, jump = 2 * m + (sv == s_m), s - 1, max(jump // 2, 1)
            else:
                jump = 1
        # the rational nearest the midpoint with denominator below (4 h)^-1/2, h = w/(2 d), if it is
        # the root, or the midpoint itself where it is one
        a, d = _dyadic(m, s)
        w = 1 << max(s, 0)
        p, r = _nearest_rational(2 * a + w, 2 * d, math.isqrt(d // (2 * w)) or 1 if sv else 2 * d)
        if a * r < p * d < (a + w) * r and _horner(top, p, r) == 0:
            a, d, w = p, r, 0  # the root p/r, in lowest terms as a continued fraction gives it
        out.append(([-a, d] if w == 0 else ints, Fraction(a, d), Fraction(a + w, d)))
    if at_hi and _horner(top, hn, hd) == 0:
        out.append(([-hn, hd], Fraction(hn, hd), Fraction(hn, hd)))
    return out


def has_root_in(ints, a, b):
    """Whether the square-free integer coefficient list has a root in the open interval (a, b).

    The caller knows it has at most one there, so it has one exactly when
    its signs just right of a and just left of b differ.
    """
    return _sign_beside(ints, a.numerator, a.denominator) != _sign_beside(ints, b.numerator, b.denominator, -1)


def midpoint(root):
    """The midpoint (a + b) / 2 of a root record (m, a, b): the root itself when a == b."""
    return (root[1] + root[2]) / 2


def _primitive_list(a):
    """The integer list divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    g = -g if a and a[-1] < 0 else g
    return [c // g for c in a]


def poly_gcd(a, b):
    """Primitive greatest common divisor of two integer coefficient lists (low degree first).

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989) on the primitive parts a and b, with |.| the largest absolute
    coefficient: at xi = 2 min(|a|, |b|) + 2 the integer gcd of a(xi) and
    b(xi) is read back as a polynomial from its symmetric base-xi digits,
    and that polynomial's primitive part, with a positive leading
    coefficient, is returned once it divides both a and b; else xi is
    squared and the step repeats.  It is exact, with no fallback:

    - Correct.  Let the candidate h divide a and b, so their gcd is g = h k.
      Every root of g is a root of the input of least |.|, below xi/2 in
      modulus by Cauchy's bound, so |k(xi)| > xi/2 unless k is a unit.  But
      g(xi) divides the integer gcd, which is c h(xi) with c the content
      of the digits, so k(xi) divides c <= xi/2: k is a unit.
    - Terminates.  The integer gcd is g(xi) times a divisor of the nonzero
      resultant Res(a/g, b/g), so once xi is past twice that resultant
      times |g|, the digits are those of a multiple of g.
    """
    a, b = _primitive_list(trim(a)), _primitive_list(trim(b))
    if not (a and b):
        return a or b
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        gamma, half, h = math.gcd(_horner(a, xi, 1), _horner(b, xi, 1)), xi // 2, []
        while gamma:
            gamma, digit = divmod(gamma + half, xi)
            h.append(digit - half)
        h = _primitive_list(h)
        if not (pseudo_divmod(a, h)[1] or pseudo_divmod(b, h)[1]):
            return h
        xi *= xi


def squarefree(ints):
    """Square-free part p / gcd(p, p') of an integer coefficient list, primitive (see ``poly_gcd``)."""
    p = _primitive_list(trim(ints))
    if len(p) <= 1:
        return p
    return _u_div(p, poly_gcd(p, [i * c for i, c in enumerate(p)][1:]))


def pseudo_divmod(a, b, steps=None):
    """(q, r) with lc(b)^steps a = q b + r and deg r < deg b, for integer lists, b nonzero.

    ``steps`` is at least deg a - deg b + 1, its default (0 when deg a < deg b).
    The long division of lc(b)^steps a by b is then exact at every step
    (Knuth, TAOCP vol. 2, 4.6.1), so all of it stays in Python ints.
    """
    n = len(b) - 1
    k = max(len(a) - n, 0)
    if not (k or steps):  # deg a < deg b: a is its own remainder
        return [], a
    scale = b[-1] ** (k if steps is None else steps)
    r = [c * scale for c in a]
    q = [0] * k
    for j in range(k - 1, -1, -1):
        c = q[j] = r[j + n] // b[-1]
        for i, bi in enumerate(b):
            r[j + i] -= c * bi
    return q, trim(r[:n])


# -- bivariate toolkit: polynomials in t over Z[u] ---------------------------
#
# A t-row list holds a bivariate polynomial as its coefficients in t, low
# degree first, each a trimmed coefficient list in u.  The PRS works on
# integer rows: Python ints are several times faster than Fractions here.


def rows_at(rows, x):
    """q^d times the t-row list at u = x = p/q, d its degree in u, by homogeneous Horner: an integer list in t."""
    p, q = x.numerator, x.denominator
    d = max(map(len, rows), default=1) - 1
    return trim([_horner(row, p, q) * q ** (d + 1 - len(row)) for row in rows])


def columns_at(group, x):
    """Each column of Polys in a group at u = x = p/q, as integer lists in t with one positive scale.

    ``rows_at`` scales an entry P by q^deg_u(P) P.den; a column, by q^D lcm(dens), D its top deg_u.
    """
    for col in group:
        degs = [p.deg_u() for p in col]
        scale, top = math.lcm(*(p.den for p in col)), max(degs)
        factors = [scale // p.den * x.denominator ** (top - d) for p, d in zip(col, degs)]
        yield [[c * f for c in rows_at(p.rows, x)] for p, f in zip(col, factors)]


def _u_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _u_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _u_mul(out, a)
    return out


def _u_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return trim(out)


def _u_div(a, b):
    """Exact quotient of integer coefficient lists."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(a[k + len(b) - 1], b[-1])
        if rem:
            raise ArithmeticError("inexact division in Z[u]")
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
    if any(a):
        raise ArithmeticError("inexact division in Z[u]")
    return trim(q)


def _pseudo_rem(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b for t-row lists, deg a >= deg b."""
    lead = b[-1]
    r = list(a)
    steps = len(a) - len(b) + 1
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [_u_mul(lead, c) for c in r]
        for i, bi in enumerate(b):
            r[shift + i] = _u_sub(r[shift + i], _u_mul(top, bi))
        while r and not r[-1]:
            r.pop()
        steps -= 1
    scale = _u_pow(lead, steps)
    return [_u_mul(scale, c) for c in r]


def _primitive(rows):
    """(primitive part with coprime integer coefficients, ``poly_gcd`` of the rows) of a nonzero t-row list."""
    content = []
    for row in rows:
        content = poly_gcd(content, row)
    rows = [_u_div(row, content) for row in rows]
    g = math.gcd(*(c for row in rows for c in row))
    return [[c // g for c in row] for row in rows], content


def slope_rows(rows):
    """The t-derivative of a t-row list."""
    return [[k * x for x in row] for k, row in enumerate(rows[1:], 1)]


def subresultants(rows):
    """The subresultants S_j of an integer t-row list a of degree >= 1 in t and b = da/dt, as t-rows.

    One S_j for each degree j of the subresultant PRS run to its end, from
    b = S_{n-1} down, with S_j[-1] its principal coefficient: the PRS
    element, scaled by S_j[-1] / lc after a defective step.  Every division
    is exact in Z[u], so coefficients grow only linearly (Collins; Brown and
    Traub), with no u-gcd of each remainder.  The last S_j is [Res_t(a, b)]
    up to sign, or the gcd of a and b up to a u-content.
    """
    a, b = rows, slope_rows(rows)
    g, h = [1], [1]
    chain = []
    while True:
        delta = len(a) - len(b)
        divisor = _u_mul(g, _u_pow(h, delta))
        # h <- g^delta / h^(delta - 1), with g the new leading coefficient
        g = b[-1]
        h = _u_div(_u_mul(h, _u_pow(g, delta)), _u_pow(h, delta))
        chain.append(b if delta == 1 else [_u_div(_u_mul(c, h), g) for c in b])
        if len(b) == 1:
            return chain
        r = _pseudo_rem(a, b)
        if not r:
            return chain
        a, b = b, [_u_div(c, divisor) for c in r]


def squarefree_t(p: Poly):
    """(sf, content, chain): p's primitive square-free part in t as t-rows, its u-content, and sf's chain.

    p = c * content(u) * prod_i F_i(t, u)^i for a rational c and primitive
    square-free F_i; ``sf`` is the t-row list of prod_i F_i with coprime
    integer coefficients, the primitive part of p divided by its gcd with
    dp/dt.  ``content`` is a primitive integer list in u (see ``poly_gcd``):
    p vanishes identically on the lines where it does.  ``chain`` is
    ``subresultants(sf)``, [] when sf is a constant: the chain that found p's
    primitive part square-free, else one built on the quotient.  Its last
    element is [Res_t(sf, dsf/dt)] up to sign.
    """
    if p.is_zero():
        raise ZeroDivisionError("square-free part of the zero polynomial")
    a, content = _primitive(p.rows)
    if len(a) == 1:
        return [[1]], content, []
    chain = subresultants(a)
    g = chain[-1]
    if len(g) == 1:
        return a, content, chain
    g = _primitive(g)[0]
    # exact division a / g in Z[u][t]: g is primitive and divides a
    quotient = [[] for _ in range(len(a) - len(g) + 1)]
    for k in range(len(quotient) - 1, -1, -1):
        c = quotient[k] = _u_div(a[k + len(g) - 1], g[-1])
        for i, gi in enumerate(g):
            a[k + i] = _u_sub(a[k + i], _u_mul(c, gi))
    return quotient, content, subresultants(quotient)


def line_gcd_split(rows, e, chain):
    """The roots of e split by the gcd of the line of p with its t-derivative there.

    ``rows`` is the integer t-row list of p, ``chain`` is
    ``subresultants(rows)`` and ``e`` a square-free integer list in u.
    Returns [(e_i, line_i, gcd_i)], line_i and gcd_i as t-rows, gcd_i
    primitive: the e_i are non-constant integer lists that divide e and
    share no root, and at every root u* of e_i, line_i(., u*) and
    gcd_i(., u*) are p(., u*) and gcd(p(., u*), dp/dt(., u*)) up to nonzero
    factors, both with a nonzero leading coefficient.  By the subresultant
    theorem that gcd is the S_j of least j whose principal coefficient does
    not vanish at u*, where the line keeps its degree; the other roots are
    split again on p without every top row that vanishes at all of them, by
    a chain built here.  Roots where p's line is a constant are left out.
    """
    e = trim(e)
    out = []
    while len(e) > 1 and len(rows) > 1:
        for s in reversed(chain):
            common = poly_gcd(e, s[-1])
            part = _u_div(e, common)
            if len(part) > 1:
                out.append((part, rows, _primitive(s)[0]))
            e = common
            if len(e) == 1:
                return out
        # while e divides lc(rows) it divides every principal coefficient: drop the row
        while rows and not pseudo_divmod(rows[-1], e)[1]:
            rows = rows[:-1]
        chain = subresultants(rows) if len(rows) > 1 else []
    return out
