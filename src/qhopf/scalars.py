"""Exact scalar arithmetic over the deformation parameters.

Every symbolic computation in this package happens over the field
Q(p, q) of rational functions in the two deformation parameters with
rational coefficients.  A :class:`ParamScalar` is always in canonical
form, so equality of values coincides with equality of representations.
The value's own reduced denominator picks one of two representations:

- If the denominator is a monomial with coefficient 1, the value is a
  Laurent polynomial with int coefficients, stored as an offset
  ``(i0, j0)`` and one sparse dict ``{(i, j): c}`` whose lowest p and
  lowest q exponents are both 0: the value is the sum of
  ``c p^(i0+i) q^(j0+j)``.  Sums, products and negation of such values
  are plain dict arithmetic, with no gcd.  A product with a single term
  c p^i q^j adds the offsets and shares the other dict when c = 1 (it
  rescales the values, on the same keys, otherwise), so the q^k and p^k
  structure constants of the algebra cost no dict copy.  A sum copies
  the operand at the lower offset and adds the other's terms at moved
  keys.  Everything the algebra layers build lies in Z[p^±1, q^±1].
- Otherwise (``3/2*p``, ``1/(1 - q)``, division in expressions,
  Gauss-binomial quotients) the value is a fraction of two int
  polynomials with exponents >= 0, reduced by their polynomial gcd and
  by the gcd of their integer contents, with the lowest-order
  coefficient of the denominator positive: ``3/2*p`` is ``3 p`` over
  ``2`` and ``1/(2 q)`` is ``1`` over ``2 q``.  An operation with such an
  operand takes this field path, and its result returns to the Laurent
  form when its reduced denominator is a monomial with coefficient 1.
  The gcd (GCDHEU in q, certified by exact division) and exact division
  run on ints; rational coefficients are cleared once on entry.

Sums of products of Laurent values go through one kernel, ``_packed_sums``
(called by ``sparse.accumulate``, and by ``_pmul`` for one product); it
packs them as Kronecker-substituted big integers when that pays.

The read-only views ``num`` and ``den`` give the reduced fraction for
either representation, with exponents >= 0, Fraction coefficients and
the lowest-order denominator coefficient 1; rendering reads the same
fraction, so ``1/q``, ``1/(p*q)`` and ``(1 - q^2)/(1 - p)`` render
literally and read back.  The monomial order is graded lex, ``p < q``.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import accumulate, count, product
from types import MappingProxyType

__all__ = [
    "ParamScalar",
    "ZERO",
    "ONE",
    "P",
    "Q",
    "scalar",
    "ppow",
    "qpow",
    "qbinomial",
    "format_linear",
]


# ---------------------------------------------------------------------------
# bivariate polynomial helpers (plain dicts {(i, j): c}, zero == {})
# ---------------------------------------------------------------------------

def _gkey(mono):
    # graded lex with p < q: total degree first, then the q exponent
    i, j = mono
    return (i + j, j)


def _padd(f, g, sub=False, di=0, dj=0):
    # f + g (f - g when sub) with g's keys moved by (di, dj), and whether
    # a key with a zero exponent cancelled
    out = dict(f)
    cut = False
    shift = di or dj
    for m, c in g.items():
        if shift:
            m = (m[0] + di, m[1] + dj)
        s = out.get(m)
        if s is None:
            out[m] = -c if sub else c
        else:
            s = s - c if sub else s + c
            if s:
                out[m] = s
            else:
                del out[m]
                cut = cut or 0 in m
    return out, cut


def _pneg(f):
    return {m: -c for m, c in f.items()}


def _pshift(f, di, dj):
    return {(i + di, j + dj): c for (i, j), c in f.items()}


def _pprim(f):
    # primitive part of a nonzero int polynomial (sign kept)
    g = math.gcd(*f.values())
    return f if g == 1 else {m: c // g for m, c in f.items()}


# term pairs from which packing pays, plus one per decoded slot (CHANGES.md)
PACK_MIN_PAIRS = 256


def _pmul(f, g):
    if not f or not g:
        return {}
    if len(f) * len(g) >= PACK_MIN_PAIRS:
        out = _packed_sums([(_new(f, None, _K0), ((0, _new(g, None, _K0)),))])
        if out is not None:
            x = out[0]
            return _pshift(x._n, *x._o) if x._o != _K0 else x._n
    out = {}
    for (fi, fj), fc in f.items():
        for (gi, gj), gc in g.items():
            m = (fi + gi, fj + gj)
            s = out.get(m)
            if s is None:
                out[m] = fc * gc
            else:
                s = s + fc * gc
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _packed_sums(blocks):
    """{t: sum of f c} over blocks (f, pairs) and pairs (t, c), zeros left
    out, f possibly a pair (f, g) for f g.  None for a 0 or field value, or
    below PACK_MIN_PAIRS term pairs of multi-term products plus slots.

    A value packs once, as its lowest exponents and one int with
    p -> X^W, q -> X at X = 2^s; products multiply, sums add shifted ints,
    and each key decodes once, in balanced digits (by the decoder that
    also lifts the field-path gcd).  As evaluation at 2^s is a ring
    homomorphism, only that sum must fit: W > each key's q-extent,
    2^(s-1) > its bound, the sum over its products f g c of
    ||f||_1 ||g||_1 ||c||_1 with one l1 norm replaced by that factor's
    largest |c|.
    """
    work = 0
    for f, pairs in blocks:
        if f.__class__ is tuple:
            lf, lg = len(f[0]._n), len(f[1]._n)
            work += lf * lg if lf > 1 < lg and pairs else 0
            lf *= lg
        else:
            lf = len(f._n)
        if lf > 1:
            for _, c in pairs:
                if len(c._n) > 1:
                    work += lf * len(c._n)
    if work < PACK_MIN_PAIRS:
        return None
    budget = work - PACK_MIN_PAIRS  # packed slots allowed
    # _pstat by id; per key [i low, i high, j low, j high, bound, sum]
    stats, keys, todo = {}, {}, []
    for k, (f, pairs) in enumerate(blocks):
        f, g = f if f.__class__ is tuple else (f, ONE)
        fi, fj, fdi, fdj, fl, fm, *_ = stats.get(id(f)) or _pstat(f, stats)
        gi, gj, gdi, gdj, gl, gm, *_ = stats.get(id(g)) or _pstat(g, stats)
        bl, bm = fl * gl, min(fl * gm, fm * gl)
        for t, c in pairs:
            ci, cj, cdi, cdj, cl, cm, _, _, _ = (stats.get(id(c))
                                                 or _pstat(c, stats))
            i0, j0 = fi + gi + ci, fj + gj + cj
            i1, j1 = i0 + fdi + gdi + cdi, j0 + fdj + gdj + cdj
            r = keys.get(t)
            if r is None:
                r = keys[t] = [i0, i1, j0, j1, 0, 0]
            elif i0 < r[0] or i1 > r[1] or j0 < r[2] or j1 > r[3]:
                r[:4] = (min(r[0], i0), max(r[1], i1), min(r[2], j0),
                         max(r[3], j1))
            r[4] += min(bl * cm, bm * cl)
            todo.append((r, k, id(c), i0, j0))
    recs = keys.values()
    width = max((r[3] - r[2] for r in recs), default=0) + 1
    if None in stats.values() or budget < sum(
            (r[1] - r[0]) * width + r[3] - r[2] + 1 for r in recs):
        return None
    nbytes = (max((r[4] for r in recs), default=0).bit_length() + 8) // 8
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    bits, fmt = 8 * nbytes, _SLOT_FORMATS.get(nbytes)
    packed = {k: _kpack(s, width, nbytes, fmt) for k, s in stats.items()}
    prods = [packed[id(f[0])] * packed[id(f[1])] if f.__class__ is tuple
             else packed[id(f)] for f, _ in blocks]
    for r, k, c, i, j in todo:
        r[5] += prods[k] * packed[c] << bits * ((i - r[0]) * width + j - r[2])
    out = {}
    for t, (i0, i1, j0, j1, _, v) in keys.items():
        if v:
            n = (i1 - i0) * width + j1 - j0 + 1
            out[t] = _laurent({m: d for m, d in zip(
                product(range(i1 - i0 + 1), range(width)),
                _balanced_digits(v, nbytes, n)) if d}, i0, j0)
    return out


def _pstat(x, stats):
    # (low i, low j, i extent, j extent, l1, max |c|, terms, their lows)
    n, s = x._n, None
    if x._d is None and n:
        (i0, i1), (j0, j1) = ((min(e), max(e)) for e in zip(*n))
        a = list(map(abs, n.values()))
        s = (x._o[0] + i0, x._o[1] + j0, i1 - i0, j1 - j0, sum(a), max(a),
             n, i0, j0)
    stats[id(x)] = s
    return s or (0,) * 9


def _kpack(s, width, nbytes, fmt):
    # the terms of s as one int: c + 2^(8 nbytes - 1) per slot, less the biases
    _, _, di, dj, _, _, n, i0, j0 = s
    if len(n) == 1:
        return n[i0, j0]
    slots, half = di * width + dj + 1, 1 << (8 * nbytes - 1)
    digits = [half] * slots
    for (i, j), c in n.items():
        digits[(i - i0) * width + j - j0] = c + half
    raw = (struct.pack(f"<{slots}{fmt}", *digits) if fmt else
           b"".join(d.to_bytes(nbytes, "little") for d in digits))
    return int.from_bytes(raw, "little") - _kbias(nbytes, slots)


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _kbias(nbytes, nslots):
    # the int of nslots slots of nbytes, each holding 2^(8 nbytes - 1)
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")


def _balanced_digits(v, nbytes, n):
    # v's n lowest digits in base X = 2^(8 nbytes), each in [-X/2, X/2)
    fmt, half = _SLOT_FORMATS.get(nbytes), 1 << (8 * nbytes - 1)
    raw = (v + _kbias(nbytes, n)).to_bytes(n * nbytes, "little")
    return [d - half for d in (struct.unpack(f"<{n}{fmt}", raw) if fmt else
            (int.from_bytes(raw[k:k + nbytes], "little")
             for k in range(0, len(raw), nbytes)))]


def _peval(f, pv, qv):
    total = None
    for (i, j), c in f.items():
        term = c * pv**i * qv**j
        total = term if total is None else total + term
    if total is None:
        return 0 * pv  # zero of the right numeric type
    return total


_K0 = (0, 0)
_POLY_ONE = {_K0: 1}


# ---------------------------------------------------------------------------
# exact division and gcd in Z[p, q] (exponents >= 0)
#
# The gcd is GCDHEU in q (Char, Geddes and Gonnet, J. Symbolic Comput.
# 7, 1989; Liao and Fateman, ISSAC 1995), certified by exact division
# (_pgcd).  One sequence on int lists (_ugcd) computes its gcd in Z[p] of
# the images; by Gauss's lemma the gcd is primitive, so quotients by it
# are integral.
# ---------------------------------------------------------------------------

def _pdiv_exact(f, g):
    """Exact quotient f/g in Z[p, q]; raises if g does not divide f.

    Both are packed by the substitution p -> x^W, q -> x, with W one more
    than f's q-degree, and one long division of int lists gives the
    packed quotient h.  The substitution is injective on polynomials of
    q-degree < W, so deg_q(g) + deg_q(h) < W certifies g h = f.
    """
    if not f:
        return {}
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(g) == 1:
        (gi, gj), gc = next(iter(g.items()))
        out = {}
        for (i, j), c in f.items():
            h, r = divmod(c, gc)
            if r or i < gi or j < gj:
                raise ArithmeticError("inexact polynomial division")
            out[(i - gi, j - gj)] = h
        return out
    width = max(j for _, j in f) + 1
    rem = [0] * ((max(i for i, _ in f) + 1) * width)
    for (i, j), c in f.items():
        rem[i * width + j] = c
    packed = sorted((i * width + j, c) for (i, j), c in g.items())
    top, lead = packed.pop()
    out = {}
    for k in range(len(rem) - 1, top - 1, -1):
        c = rem[k]
        if c:
            h, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            s = k - top
            out[divmod(s, width)] = h
            for o, gc in packed:
                rem[s + o] -= h * gc
    if (any(rem[:top]) or max(j for _, j in out)
            + max(j for _, j in g) >= width):
        raise ArithmeticError("inexact polynomial division")
    return out


def _quotient_one_minus(x, k, param):
    """x / (1 - s^k) for s = p or q and k >= 1, when that is a Laurent
    value; None when x is a field value or 1 - s^k does not divide it.

    1 - s^k is prime to p and q, so it divides x exactly when it divides
    x's int dict, and the quotient keeps x's offset (its lowest p and q
    exponents are x's, so it is in normal form).  Vanishing at s = 1
    for each power of the other parameter is necessary and rules most
    non-divisors out without a division.
    """
    if x._d is not None:
        return None
    axis = 0 if param == "p" else 1
    at_one: dict = {}
    for m, c in x._n.items():
        at_one[m[1 - axis]] = at_one.get(m[1 - axis], 0) + c
    if any(at_one.values()):
        return None
    try:
        h = _pdiv_exact(x._n, {_K0: 1, (k, 0) if axis == 0 else (0, k): -1})
    except ArithmeticError:
        return None
    return _new(h, None, x._o) if h else ZERO


def _uprim(a):
    # primitive part of a nonzero int list, with a positive last entry
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _ugcd(a, b):
    # primitive gcd of int coefficient lists (index = exponent, no trailing
    # zeros, b = [] for 0), with a positive leading coefficient
    if not b:
        return _uprim(a)
    low = [next(k for k, c in enumerate(x) if c) for x in (a, b)]
    b, a = sorted((_uprim(a[low[0]:]), _uprim(b[low[1]:])), key=len)
    while len(b) > 1:
        n, lb = len(b) - 1, b[-1]
        while len(a) > n:
            # a - (la / lb) x^s b if lb divides la, else lb a - la x^s b
            la = a.pop()
            h, r = divmod(la, lb)
            if r:
                a, h = [lb * c for c in a], la
            for k, c in enumerate(b[:-1], len(a) - n):
                a[k] -= h * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a and _uprim(a)
    return [0] * min(low) + (a if not b else [1])


def _qeval(f, bits):
    # f at q = 2^bits, as an int list in p
    out = [0] * (max(i for i, _ in f) + 1)
    for (i, j), c in f.items():
        out[i] += c << bits * j
    return out


def _pgcd(f, g):
    """(h, f/h, g/h) for the primitive gcd h of nonzero f and g, up to its
    sign, by GCDHEU at q = X = 2^(8 k) for k = k0, k0 + 1, ...

    The gcd in Z[p] of f(p, X) and g(p, X), with its integer content (a
    factor in q alone shows there), lifts in balanced base-X digits to G.
    If H = pp(G) divides f and g it is their gcd D = H K: a divisor in
    Z[q] of f's or g's p-coefficients has roots below 1 + min(|f|, |g|)
    <= X/2 (max norms), so X is no root of lc_p(K); K(p, X) divides G's
    content (<= X/2), so K is in Z[q], and |K(X)| > X/2 unless K = +-1.
    An X at which f or g loses its p-leading coefficient is passed over,
    and so is one whose candidate fails the certificate.

    The loop ends.  Let A = f/D and B = g/D.  At an X that is no root of
    lc_p(f) lc_p(g), the gcd in Z[p] of the images is +-e S D(p, X), with
    e an integer and S primitive.  S is not constant only if X is a root
    of Res_p(A, B), a nonzero polynomial in Z[q] (S = 1 when A or B has
    p-degree 0).  The p-coefficients of A and B have no common factor in
    Q[q], so some Z[q]-combination of them is a nonzero integer N, and e
    divides N.  So every X but finitely many (the roots of lc_p(f g)
    Res_p(A, B), and X <= 2 |N| |D|) lifts to +-e D, whose primitive part
    +-D passes the certificate.
    """
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    k = ((2 * norm + 2).bit_length() + 7) // 8
    for k in count(k):
        a, b = _qeval(f, 8 * k), _qeval(g, 8 * k)
        if not a[-1] or not b[-1]:
            continue  # X is a root of lc_p(f g): no candidate
        c, h = math.gcd(*a, *b), {}
        for i, v in enumerate(_ugcd(a, b)):
            v *= c
            h.update(((i, j), d) for j, d in enumerate(
                _balanced_digits(v, k, v.bit_length() // (8 * k) + 2)) if d)
        h = _pprim(h)
        try:
            return h, _pdiv_exact(f, h), _pdiv_exact(g, h)
        except ArithmeticError:
            pass


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _mono_str(i, j):
    parts = []
    if i == 1:
        parts.append("p")
    elif i:
        parts.append(f"p^{i}")
    if j == 1:
        parts.append("q")
    elif j:
        parts.append(f"q^{j}")
    return "*".join(parts)


def _poly_str(f):
    if not f:
        return "0"
    items = sorted(f.items(), key=lambda kv: _gkey(kv[0]))
    out = []
    for (i, j), c in items:
        mono = _mono_str(i, j)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out)


def _wrap(s):
    if " + " in s or " - " in s or s.startswith("-"):
        return f"({s})"
    return s


def _toplevel_sum(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch == " " and s[i:i + 3] in (" + ", " - "):
            return True
    return False


def format_linear(pairs) -> str:
    """Render a list of (monomial string, ParamScalar) terms.

    Shared by all element types so that signs are pulled out of the
    coefficients: a coefficient -q renders as ``- q*<monomial>``.
    """
    out = []
    for mono, c in pairs:
        cs = str(c)
        if cs.startswith("-"):
            sign = "-"
            cs = str(-c)
        else:
            sign = "+"
        if mono in ("", "1"):
            body = cs
        else:
            if _toplevel_sum(cs):
                cs = f"({cs})"
            body = mono if cs == "1" else f"{cs}*{mono}"
        if not out:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append(f" {sign} {body}")
    return "".join(out) if out else "0"


# ---------------------------------------------------------------------------
# ParamScalar
# ---------------------------------------------------------------------------

def _reduce(num, den):
    """The canonical value num/den (den nonzero).

    Both are int polynomials with exponents >= 0.  The polynomial gcd
    and then the common integer content are divided out, and the sign
    makes the lowest-order denominator coefficient positive.  A
    denominator that is then a monomial with coefficient 1 gives the
    Laurent form.
    """
    if not num:
        return ZERO
    _, num, den = _pgcd(num, den)
    k = math.gcd(math.gcd(*num.values()), *den.values())
    if den[min(den, key=_gkey)] < 0:
        k = -k
    if k != 1:
        num = {m: c // k for m, c in num.items()}
        den = {m: c // k for m, c in den.items()}
    (di, dj), dc = next(iter(den.items()))
    if len(den) > 1 or dc != 1:
        return _new(num, den, _K0)
    return _laurent(num, -di, -dj)


def _laurent(n, i=0, j=0):
    # the Laurent value n p^i q^j in normal form (n has no zero values)
    if not n:
        return ZERO
    a, b = map(min, zip(*n))
    i, j = i + a, j + b
    return _new(_pshift(n, -a, -b) if a or b else n, None,
                (i, j) if i or j else _K0)


class ParamScalar:
    """A rational function in p and q over Q, always in canonical form.

    Instances are immutable value objects; all arithmetic is exact.
    ``num`` and ``den`` are read-only views of the reduced fraction.
    """

    # _d is None: the value is the int dict _n times p^i q^j for the
    # offset _o = (i, j), where _n is empty with offset (0, 0) or has a
    # key with i = 0 and a key with j = 0.  Otherwise _n/_d is a reduced
    # fraction of int polynomials whose denominator _d is not a monomial
    # with coefficient 1, and _o is (0, 0).  Values share their dicts,
    # so no dict is changed after construction.
    __slots__ = ("_n", "_d", "_o")

    def __init__(self, num, den=None):
        if num.__class__ is int:
            x = _new({_K0: num} if num else {}, None, _K0)
        else:
            # s num over s, with s the common coefficient denominator
            n = {_K0: num} if isinstance(num, (int, Fraction)) else num
            n = {m: Fraction(c) for m, c in n.items() if c}
            s = math.lcm(*[c.denominator for c in n.values()])
            x = _laurent({m: int(c * s) for m, c in n.items()})
            if s != 1:
                x = _divide(x, ParamScalar(s))
        if den is not None:
            x = _divide(x, ParamScalar(den))
        _set_n(self, x._n)
        _set_d(self, x._d)
        _set_o(self, x._o)

    def __setattr__(self, *args):
        raise AttributeError("ParamScalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the canonical data, never setattr
        return _new, (self._n, self._d, self._o)

    def _parts(self):
        # numerator and denominator polynomials, exponents >= 0
        n, d = self._n, self._d
        if d is not None:
            return n, d
        i, j = self._o
        si, sj = max(i, 0), max(j, 0)
        return ((_pshift(n, si, sj) if si or sj else n),
                {(si - i, sj - j): 1} if i < 0 or j < 0 else _POLY_ONE)

    def _fraction(self):
        # _parts scaled so that the lowest-order denominator coefficient
        # is 1: the form that views, rendering and evaluation read
        n, d = self._parts()
        if self._d is None:
            return n, d
        lc = d[min(d, key=_gkey)]
        if lc == 1:
            return n, d
        return ({m: Fraction(c, lc) for m, c in n.items()},
                {m: Fraction(c, lc) for m, c in d.items()})

    @property
    def num(self):
        return MappingProxyType(
            {m: Fraction(c) for m, c in self._fraction()[0].items()})

    @property
    def den(self):
        return MappingProxyType(
            {m: Fraction(c) for m, c in self._fraction()[1].items()})

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self._n

    def is_constant(self):
        n, d = self._n, self._d
        return (self._o == _K0 and (not n or (len(n) == 1 and _K0 in n))
                and (d is None or (len(d) == 1 and _K0 in d)))

    def is_integer(self):
        return self._d is None and self.is_constant()

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        d = self._d
        return Fraction(self._n.get((0, 0), 0), 1 if d is None else d[0, 0])

    def __bool__(self):
        return bool(self._n)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return _combine(self, other, False)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return _combine(self, other, True)

    def __rsub__(self, other):
        return scalar(other) - self

    def __neg__(self):
        return _new(_pneg(self._n), self._d, self._o)

    def __mul__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        if self._d is None and other._d is None:
            xn, yn = self._n, other._n
            if len(yn) == 1:
                xn, yn = yn, xn
            if len(xn) == 1:
                # a monomial factor moves the offset and keeps the keys
                c = xn[_K0]
                n = yn if c == 1 else {m: c * v for m, v in yn.items()}
            else:
                n = _pmul(xn, yn)
            if not n:
                return ZERO
            (xi, xj), (yi, yj) = self._o, other._o
            return _new(n, None, (xi + yi, xj + yj))
        sn, sd = self._parts()
        on, od = other._parts()
        return _reduce(_pmul(sn, on), _pmul(sd, od))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return _divide(self, other)

    def __rtruediv__(self, other):
        return scalar(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer power expected")
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return (self._n == other._n and self._o == other._o
                and self._d == other._d)

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if self.is_constant():
            return hash(self.as_fraction())
        d = self._d
        return hash((frozenset(self._n.items()), self._o,
                     None if d is None else frozenset(d.items())))

    # -- evaluation and rendering -------------------------------------------

    def evaluate(self, p_val, q_val):
        """Evaluate at numeric parameter values; exact on Fractions.

        A pole raises ``ZeroDivisionError``.  A float evaluation that
        over- or underflows to a zero denominator or a value that is not
        finite raises ``ValueError`` unless the exact denominator at the
        same floats is zero too.
        """
        num, den = self._fraction()
        try:
            dv = _peval(den, p_val, q_val)
            if dv:
                nv = _peval(num, p_val, q_val)
                # int coefficients at int arguments still divide exactly
                out = (Fraction(nv) if nv.__class__ is int else nv) / dv
                # out - out is 0 unless out is infinite or nan
                if out.__class__ is Fraction or out - out == 0:
                    return out
        except OverflowError:
            pass
        where = f"at p={p_val}, q={q_val}"
        if _peval(den, Fraction(p_val), Fraction(q_val)) == 0:
            raise ZeroDivisionError(f"pole of {self} {where}")
        raise ValueError(
            f"{self} is not representable in floating point {where}")

    def __str__(self):
        num, den = self._fraction()
        if den == _POLY_ONE:
            return _poly_str(num)
        den = _poly_str(den)
        # a product monomial is bracketed too: 1/p*q would read as q/p
        return (f"{_wrap(_poly_str(num))}/"
                f"{f'({den})' if '*' in den else _wrap(den)}")

    def __repr__(self):
        return f"ParamScalar({str(self)!r})"


_set_n = ParamScalar._n.__set__
_set_d = ParamScalar._d.__set__
_set_o = ParamScalar._o.__set__


def _new(num, den, off) -> ParamScalar:
    # raw builder for canonical data (see ParamScalar's slots)
    x = object.__new__(ParamScalar)
    _set_n(x, num)
    _set_d(x, den)
    _set_o(x, off)
    return x


def _combine(x, y, sub):
    # x + y, or x - y when sub
    f, g = x._n, y._n
    if not g:
        return x
    if not f:
        return -y if sub else y
    if x._d is None and y._d is None:
        o = x._o
        if o == y._o:
            n, cut = _padd(f, g, sub)
            return _laurent(n, *o) if cut else _new(n, None, o)
        (xi, xj), (yi, yj) = o, y._o
        if yi <= xi and yj <= xj:
            # copy the operand at the lower offset, unshifted
            f, g, xi, xj, yi, yj = (_pneg(g) if sub else g), f, yi, yj, xi, xj
            sub = False
        n, cut = _padd(f, g, sub, yi - xi, yj - xj)
        if cut or yi < xi or yj < xj:
            return _laurent(n, xi, xj)
        return _new(n, None, (xi, xj))
    xn, xd = x._parts()
    yn, yd = y._parts()
    if xd == yd:
        return _reduce(_padd(xn, yn, sub)[0], xd)
    return _reduce(_padd(_pmul(xn, yd), _pmul(yn, xd), sub)[0],
                   _pmul(xd, yd))


def _divide(x, y):
    if not y._n:
        raise ZeroDivisionError("division by zero polynomial")
    xn, xd = x._parts()
    yn, yd = y._parts()
    return _reduce(_pmul(xn, yd), _pmul(xd, yn))


def scalar(x) -> ParamScalar:
    """Promote an int or Fraction to a ParamScalar (ONE and ZERO for 1, 0)."""
    if isinstance(x, ParamScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ONE if x == 1 else ZERO if x == 0 else ParamScalar(x)
    raise TypeError(f"cannot promote {type(x).__name__} to ParamScalar")


ZERO = _new({}, None, _K0)
ONE = _new(_POLY_ONE, None, _K0)
P = _new(_POLY_ONE, None, (1, 0))
Q = _new(_POLY_ONE, None, (0, 1))

_PPOW_CACHE: dict[int, ParamScalar] = {0: ONE, 1: P}
_QPOW_CACHE: dict[int, ParamScalar] = {0: ONE, 1: Q}


def ppow(k: int) -> ParamScalar:
    """p^k for a signed exponent (negative k gives 1/p^|k|)."""
    hit = _PPOW_CACHE.get(k)
    if hit is None:
        hit = _PPOW_CACHE[k] = _new(_POLY_ONE, None, (k, 0))
    return hit


def qpow(k: int) -> ParamScalar:
    """q^k for a signed exponent."""
    hit = _QPOW_CACHE.get(k)
    if hit is None:
        hit = _QPOW_CACHE[k] = _new(_POLY_ONE, None, (0, k))
    return hit


# ---------------------------------------------------------------------------
# Gauss binomials
# ---------------------------------------------------------------------------

_QBIN_ROWS: dict = {}


def _qbin_lists(n: int) -> list:
    # coefficient lists (index = exponent) of [n, k] for 0 <= k <= n/2,
    # by [n, k] = [n, k-1] (1 - s^(n-k+1)) / (1 - s^k) on ints
    out = [[1]]
    for k in range(1, n // 2 + 1):
        c, m = out[-1], n - k + 1
        f = [x - y for x, y in zip(c + [0] * m, [0] * m + c)]
        # f / (1 - s^k): running sums per residue mod k, the last k vanish
        for r in range(k):
            f[r::k] = accumulate(f[r::k])
        out.append(f[:-k])
    return out


def qbinomial(n: int, k: int, param: str = "q", negate=False) -> ParamScalar:
    """The Gauss binomial coefficient as a polynomial in the parameter.

    The coefficient of x^k y^(n-k) in (x + y)^n when yx = sxy.  Row n is
    built on int lists by ``[n, k] = [n, k-1] (1 - s^(n-k+1)) / (1 - s^k)``
    for k <= n/2 and mirrored; each entry is wrapped once, and the row
    is stored only when complete, so no caller sees a partial row.  A
    true ``negate`` gives -[n, k], from a negated row stored beside it.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"qbinomial({n}, {k}) is undefined")
    if param not in ("p", "q"):
        raise ValueError("param must be 'p' or 'q'")
    row = _QBIN_ROWS.get((param, n, negate))
    if row is None:
        half = [ONE] + [_new({(0, e) if param == "q" else (e, 0): c
                              for e, c in enumerate(coeffs)}, None, _K0)
                        for coeffs in _qbin_lists(n)[1:]]
        if negate:
            half = [_new(_pneg(x._n), None, _K0) for x in half]
        row = _QBIN_ROWS[param, n, negate] = tuple(half[min(j, n - j)]
                                                   for j in range(n + 1))
    return row[k]
