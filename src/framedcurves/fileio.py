"""Deterministic file-writing helpers shared by exporters and the CLI: atomic writes,
the shortest round-trip text of floats, the decimal text of integers, and rows of
text assembled in numpy as bytes."""

from __future__ import annotations

import functools
import os
import tempfile
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_open(path):
    """Binary handle on a temp file that replaces path only if the block succeeds.

    The temp file sits in path's directory, so the final rename is atomic; on
    any exception it is removed and an existing file at path is left as it was.
    It gets the mode ``open`` would give, 0o666 less the umask, not mkstemp's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    """Write text to path as UTF-8, atomically (temp file + rename, same directory)."""
    with atomic_open(path) as handle:
        handle.write(text.encode())


def format_float(x):
    """Shortest round-trip decimal form; stable across runs."""
    return repr(float(x))


# -- shortest round-trip text of float arrays ---------------------------------------
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds the
# shortest decimal d * 10**k that rounds back to a double, the one nearest to it
# when several do, in fixed-width integer arithmetic that vectorizes over uint64.
# That is the digit string of ``repr``.  ``_source_rows`` writes its 17 digits
# and the 3 of the exponent into a 32-byte row per value, as five words looked
# up in a table of the 4-digit ASCII words 0000..9999, beside the constant
# characters; ``repr``'s layout is then gathered from that row by per-layout
# byte templates.

FLOAT_FIELD = 24  # bytes of the longest float64 repr, '-2.2250738585072014e-308'
_DIGITS = 17  # a shortest float64 decimal has at most 17 significant digits
_WORDS = (_DIGITS + 3) // 4  # the 4-digit words of a source row
_ALPHABET = "0.-e+\0"
_SOURCE = 32  # bytes of a source row: the words, the alphabet, unused NULs
_TAIL = np.frombuffer(_ALPHABET.encode().ljust(_SOURCE - 4 * _WORDS, b"\0"), np.uint32)
_FORMS = 24  # decimal points -3..16 in fixed notation, then e+XX, e+XXX, e-XX, e-XXX
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)
_GATHER = 2048  # values per block of the byte gather: a (2048, 24) intp index, 393 KB
_GATHER_OFFSETS = np.arange(0, _GATHER * _SOURCE, _SOURCE)[:, None]  # source row starts
_LOW32 = 0xFFFFFFFF


@functools.cache
def _pow10_table():
    """g(e) = ceil(10**e * 2**(127 - floor(log2 10**e))) as (hi, lo) uint64 words,
    and floor(log2 10**e), for e in [-292, 324] at index e + 292."""
    hi, lo, log2 = [], [], []
    for e in range(-292, 325):
        log2.append((10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length())
        s = 127 - log2[-1]
        g = -(-(10 ** max(e, 0) << max(s, 0)) // (10 ** max(-e, 0) << max(-s, 0)))
        hi.append(g >> 64)
        lo.append(g & (2**64 - 1))
    return np.array(hi, np.uint64), np.array(lo, np.uint64), np.array(log2, np.int64)


@functools.cache
def _digit_words():
    """The ASCII text of 0000..9999 as 10,000 uint32 words of four bytes each."""
    return np.frombuffer("".join(f"{i:04d}" for i in range(10**4)).encode(), np.uint32)


def _mul(a, b):
    """High and low words of the 128-bit products of two uint64 arrays."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (mid << 32) | (p00 & _LOW32)


def _shifted(g_hi, g_lo, s):
    """g << s as three words, low first, for shifts s in [1, 63]."""
    return g_lo << s, (g_hi << s) | (g_lo >> (64 - s)), g_hi >> (64 - s)


def _rounding_interval(bits):
    """The decimal exponent k, and v * 10**-k with the ends of v's rounding
    interval at that scale, as 4 times their value rounded to odd: (k, vb,
    lower, upper), for the bit patterns of normal float64 values v
    (Giulietti, figure 6).  The 128-bit words of the products die here, before
    the digits are chosen; the inputs of h die before the products are formed."""
    frac = bits & ((1 << 52) - 1)
    biased = (bits >> 52) & 0x7FF
    closer = (frac == 0) & (biased > 1)  # the next double down is half as far
    c = frac | (1 << 52)
    q = biased.astype(np.int64) - 1075  # v = c * 2**q
    del frac, biased
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2**q)), or of 3/4 * 2**q
    g_hi, g_lo, log2 = (table[292 - k] for table in _pow10_table())
    h = (q + log2 + 1).astype(np.uint64)
    del q, log2
    # p = (4c << h) * g in three words; the bounds (4c + 2) and (4c - 2 + closer)
    # differ from 4c by g << (h + 1) and g << (h + 1 - closer)
    x_hi, p0 = _mul(g_lo, c << (h + 2))
    p2, p1 = _mul(g_hi, c << (h + 2))
    p1 += x_hi
    p2 += p1 < x_hi
    d0, d1, d2 = _shifted(g_hi, g_lo, h + 1)
    u0, u1 = p0 + d0, p1 + d1
    u2 = p2 + d2 + ((u1 < d1) | ((u1 == 2**64 - 1) & (u0 < d0)))
    u1 += u0 < d0
    d0, d1, d2 = _shifted(g_hi, g_lo, h + 1 - closer)
    l1 = p1 - d1
    l2 = p2 - d2 - ((p1 < d1) | ((l1 == 0) & (p0 < d0)))
    l1 -= p0 < d0
    # each rounded to odd: the top word, its lowest bit set if the rest is not 0
    odd = c & 1  # an even c keeps the rounding interval's ends
    return k, p2 | (p1 > 1), (l2 | (l1 > 1)) + odd, (u2 | (u1 > 1)) - odd


def _shortest_digits(bits):
    """Digits d (no trailing zeros) and exponent k with repr(v) = d * 10**k, for
    the bit patterns of normal float64 values v (Giulietti, figures 4 and 6)."""
    k, vb, lower, upper = _rounding_interval(bits)
    s, sp = vb >> 2, vb // 40
    up_in, wp_in = lower <= 40 * sp, 40 * sp + 40 <= upper
    u_in, w_in = lower <= 4 * s, 4 * s + 4 <= upper
    mid = 4 * s + 2
    nearest = s + ((vb > mid) | ((vb == mid) & (s & 1).astype(bool)))
    short = (s >= 10) & (up_in != wp_in)
    d = np.where(short, sp + wp_in, np.where(u_in != w_in, s + w_in, nearest))
    k += short
    zeros = np.flatnonzero(d % 10 == 0)
    if len(zeros):
        dz, kz = d[zeros], k[zeros]
        for z in (16, 8, 4, 2, 1):
            strip = dz % _POW10[z] == 0
            dz = np.where(strip, dz // _POW10[z], dz)
            kz += strip * z
        d[zeros], k[zeros] = dz, kz
    return d, k


@functools.cache
def _templates():
    """Byte templates of the ``repr`` layouts, one row per (sign, digit count,
    form): source byte j < _DIGITS + 3 stands for itself, a constant character
    c for byte _DIGITS + 3 + _ALPHABET.index(c)."""
    source = {chr(j): j for j in range(_DIGITS + 3)}
    constant = {ch: _DIGITS + 3 + i for i, ch in enumerate(_ALPHABET)}
    rows = []
    for neg in (False, True):
        for n in range(1, _DIGITS + 1):
            digits = "".join(map(chr, range(n)))
            for form in range(_FORMS):
                decpt = form - 3
                if form >= 20:
                    exponent = "".join(map(chr, range(_DIGITS + 1 - form % 2, _DIGITS + 3)))
                    body = (digits[0] + ("." + digits[1:] if n > 1 else "") + "e"
                            + "+-"[form >= 22] + exponent)
                elif decpt <= 0:
                    body = "0." + "0" * -decpt + digits
                elif decpt < n:
                    body = digits[:decpt] + "." + digits[decpt:]
                else:
                    body = digits + "0" * (decpt - n) + ".0"
                row = [source.get(ch, constant.get(ch)) for ch in "-" * neg + body]
                rows.append(row + [constant["\0"]] * (FLOAT_FIELD - len(row)))
    return np.array(rows, np.intp)


def _source_rows(padded, exponent):
    """The 32-byte source rows of ``format_floats``, as an (n, 32) uint8 array.

    A row holds the 17 digits of a zero-padded significand and the 3 of its
    exponent's magnitude as five 4-digit words (digits 0-3, 4-7, 8-11,
    12-15, and digit 16 before the exponent's three), then ``_TAIL``.
    """
    high = (padded // 10**8).astype(np.uint32)  # digits 0-8; 32-bit division is the faster
    low = padded.astype(np.uint32) - high * np.uint32(10**8)  # digits 9-16, exact mod 2**32
    eight, three, seven = high // 10, low // 10**5, low // 10
    lead = eight // 10**4
    words = (lead, eight - lead * 10**4, (high - eight * 10) * 1000 + three,
             seven - three * 10**4, (low - seven * 10) * 1000 + exponent.astype(np.uint32))
    src = np.empty((_SOURCE // 4, len(padded)), np.uint32)  # word j of value i at [j, i]
    src[_WORDS:] = _TAIL[:, None]
    for row, word in zip(src, words):
        _digit_words().take(word.astype(np.intp), out=row)
    return src.T.copy().view(np.uint8)


def format_floats(values):
    """``repr`` of every float64 of an array, as NUL-padded ``FLOAT_FIELD``-byte
    strings: an array of dtype ``S24`` and the shape of ``values``.

    Normal values take the vectorized Schubfach path; ±0, subnormals, ±inf and
    NaNs (whatever their payload) take ``repr`` itself.  A value's 20 digits
    (17 significant, 3 of the exponent) come from five lookups in a table of
    4-digit ASCII words, into a 32-byte source row from which the template of
    its layout gathers the text.  The gather index is built ``_GATHER`` values
    at a time, so it never exceeds 2,048 x 24 intp entries (393 KB) whatever
    the array's size.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()  # contiguous
    bits = flat.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    special = np.flatnonzero((biased == 0) | (biased == 0x7FF))
    if len(special):
        bits = bits.copy()
        bits[special] = np.float64(1.0).view(np.uint64)
    d, k = _shortest_digits(bits)
    n = np.searchsorted(_POW10, d, side="right")
    decpt = n + k  # repr(v) = 0.d * 10**decpt
    exponent = np.abs(decpt - 1)
    form = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                    20 + 2 * (decpt < 1) + (exponent >= 100))
    src = _source_rows(d * _POW10[_DIGITS - n], exponent)
    layout = ((bits >> 63).astype(np.intp) * _DIGITS + n - 1) * _FORMS + form
    out = np.empty((len(flat), FLOAT_FIELD), np.uint8)
    for lo in range(0, len(flat), _GATHER):
        index = _templates().take(layout[lo:lo + _GATHER], axis=0)
        index += _GATHER_OFFSETS[:len(index)]
        src[lo:lo + _GATHER].ravel().take(index, out=out[lo:lo + _GATHER], mode="clip")
    if len(special):
        text = [repr(x) for x in flat[special].tolist()]
        out[special] = np.array(text, f"S{FLOAT_FIELD}").view(np.uint8).reshape(-1, FLOAT_FIELD)
    return out.view(f"S{FLOAT_FIELD}").reshape(values.shape)


def format_ints(values):
    """Decimal text of every integer of an array in [0, 2**32), as NUL-padded
    strings of the widest one's length: dtype ``S<width>``, the shape of ``values``.

    The digits are right-aligned, so a shorter number starts with NULs, which
    ``rows_text`` drops like every other padding NUL.
    """
    values = np.asarray(values)
    flat = values.ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= 2**32):
        raise ValueError("format_ints takes integers in [0, 2**32)")
    width = len(str(int(flat.max()))) if flat.size else 1
    out = np.empty((len(flat), width), np.uint8)
    number = flat.astype(np.uint32)  # 32-bit division is the faster
    for j in range(width - 1, -1, -1):
        tens = number // 10
        digit = (number - tens * 10 + ord("0")).astype(np.uint8)
        out[:, j] = digit if j == width - 1 else digit * (number > 0)
        number = tens
    return out.view(f"S{width}").reshape(values.shape)


def spaced(columns):
    """``rows_text`` parts for the columns with one space between neighbours."""
    return [part for column in columns for part in (" ", column)][1:]


def rows_text(parts, count=None):
    """Bytes of one group of lines per row, the concatenation of ``parts``: constant
    strings and 1-D arrays of NUL-padded bytes (numpy ``S`` dtype), one per row.

    There are ``count`` rows, by default as many as the first array has.  They
    are laid out in one buffer at fixed offsets; the padding NULs are then
    dropped, and the ASCII bytes go to a binary handle as they are.
    """
    template, names, formats, offsets = b"", [], [], []
    for part in parts:
        if isinstance(part, str):
            template += part.encode()
        else:
            names.append(f"f{len(names)}")
            formats.append(part.dtype)
            offsets.append(len(template))
            template += bytes(part.dtype.itemsize)
    arrays = [part for part in parts if not isinstance(part, str)]
    buffer = bytearray(template) * (len(arrays[0]) if count is None else count)
    if arrays:
        rows = np.frombuffer(buffer, np.dtype({"names": names, "formats": formats,
                                                "offsets": offsets, "itemsize": len(template)}))
        for name, array in zip(names, arrays):
            rows[name] = array
    return buffer.translate(None, b"\0")
