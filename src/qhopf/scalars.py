"""Exact scalar arithmetic over the deformation parameters.

Every symbolic computation in this package happens over the field
Q(p, q) of rational functions in the two deformation parameters with
rational coefficients.  A :class:`ParamScalar` is always in canonical
form, so equality of values coincides with equality of representations.
The value's own reduced denominator picks one of two representations:

- If the denominator is a monomial, the value is a Laurent polynomial,
  stored as one sparse dict ``{(i, j): c}`` for ``c p^i q^j`` with
  signed exponents.  Coefficients are ints; a
  :class:`fractions.Fraction` appears only for a non-integer one.  Sums,
  products and negation of such values are plain dict arithmetic, with
  no gcd.  Everything the algebra layers build lies in Z[p^±1, q^±1].
- Otherwise (``1/(1 - q)``, division in expressions, Gauss-binomial
  quotients) the value is a fraction of two polynomials with Fraction
  coefficients, reduced by their polynomial gcd and scaled so that the
  lowest-order coefficient of the denominator equals 1.  An operation
  with such an operand takes this field path, and its result returns to
  the Laurent form when its reduced denominator is a monomial.

The read-only views ``num`` and ``den`` give the reduced fraction for
either representation, with exponents >= 0 and Fraction coefficients;
rendering reads the same fraction, so ``1/q`` and ``(1 - q^2)/(1 - p)``
render literally.  The monomial order is graded lexicographic with
``p < q``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Union

__all__ = [
    "ParamScalar",
    "ZERO",
    "ONE",
    "P",
    "Q",
    "scalar",
    "scalar_arith",
    "scalar_eval",
    "ppow",
    "qpow",
    "qbinomial",
    "qbinomial_quotient",
    "format_linear",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

ScalarLike = Union["ParamScalar", int, Fraction]


# ---------------------------------------------------------------------------
# bivariate polynomial helpers (plain dicts {(i, j): Fraction}, zero == {})
# ---------------------------------------------------------------------------

def _gkey(mono):
    # graded lex with p < q: total degree first, then the q exponent
    i, j = mono
    return (i + j, j)


def _padd(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pneg(f):
    return {m: -c for m, c in f.items()}


def _psub(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s = s - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pscale(f, c):
    if not c:
        return {}
    return {m: k * c for m, k in f.items()}


def _pshift(f, di, dj):
    return {(i + di, j + dj): c for (i, j), c in f.items()}


def _pmul(f, g):
    if not f or not g:
        return {}
    if len(f) == 1:
        (i, j), c = next(iter(f.items()))
        return {(i + gi, j + gj): c * gc for (gi, gj), gc in g.items()}
    if len(g) == 1:
        (i, j), c = next(iter(g.items()))
        return {(fi + i, fj + j): fc * c for (fi, fj), fc in f.items()}
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


def _peval(f, pv, qv):
    total = None
    for (i, j), c in f.items():
        term = c * pv**i * qv**j
        total = term if total is None else total + term
    if total is None:
        return 0 * pv  # zero of the right numeric type
    return total


_POLY_ONE = {(0, 0): _F1}


# ---------------------------------------------------------------------------
# univariate helpers over Q: coefficient lists, index == exponent, trimmed
# ---------------------------------------------------------------------------

def _utrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _uladd(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _F0) + (b[i] if i < len(b) else _F0)
           for i in range(n)]
    return _utrim(out)


def _ulsub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _F0) - (b[i] if i < len(b) else _F0)
           for i in range(n)]
    return _utrim(out)


def _ulmul(a, b):
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if not ac:
            continue
        for j, bc in enumerate(b):
            out[i + j] += ac * bc
    return _utrim(out)


def _to_primitive_ints(a):
    # clear Fraction denominators and divide by the integer content;
    # only the poly up to a rational unit matters for gcd purposes
    scale = 1
    for c in a:
        d = c.denominator
        scale = scale * d // math.gcd(scale, d)
    ints = [int(c.numerator * (scale // c.denominator)) for c in a]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_prem_primitive(a, b):
    # primitive pseudo-remainder over Z: content reduction after each
    # elimination keeps the classical Euclid coefficient swell in check
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while r and len(r) - 1 >= db:
        lr = r[-1]
        off = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[off + i] -= lr * bc
        while r and not r[-1]:
            r.pop()
        g = 0
        for v in r:
            g = math.gcd(g, v)
        if g > 1:
            r = [v // g for v in r]
    return r


def _ulist_gcd(a, b):
    if not a:
        b = list(b)
        if not b:
            return []
        lc = b[-1]
        return [c / lc for c in b]
    if not b:
        a = list(a)
        lc = a[-1]
        return [c / lc for c in a]
    x, y = _to_primitive_ints(a), _to_primitive_ints(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _int_prem_primitive(x, y)
    lead = x[-1]
    return [Fraction(v, lead) for v in x]


def _udiv_exact(a, b):
    if not a:
        return []
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        raise ArithmeticError("inexact polynomial division")
    r = list(a)
    out = [_F0] * (len(a) - len(b) + 1)
    lb = b[-1]
    while r and len(r) - 1 >= len(b) - 1:
        c = r[-1] / lb
        off = len(r) - 1 - (len(b) - 1)
        out[off] = c
        for i, bc in enumerate(b):
            r[off + i] -= c * bc
        _utrim(r)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return _utrim(out)


# ---------------------------------------------------------------------------
# gcd and exact division in Q[p, q]
#
# A polynomial is viewed as a polynomial in q whose coefficients live in
# Q[p] ("columns"); gcds use a primitive polynomial remainder sequence.
# ---------------------------------------------------------------------------

def _cols(f):
    tmp = {}
    for (i, j), c in f.items():
        tmp.setdefault(j, {})[i] = c
    out = {}
    for j, d in tmp.items():
        pl = [_F0] * (max(d) + 1)
        for i, c in d.items():
            pl[i] = c
        out[j] = pl
    return out


def _from_cols(cols):
    out = {}
    for j, pl in cols.items():
        for i, c in enumerate(pl):
            if c:
                out[(i, j)] = c
    return out


def _cols_content(cols):
    g = []
    for pl in cols.values():
        g = _ulist_gcd(g, pl)
        if len(g) == 1 and g[0] == _F1:
            return g
    return g


def _cols_div(cols, g):
    return {j: _udiv_exact(pl, g) for j, pl in cols.items()}


def _cols_prem(A, B):
    n = max(B)
    lb = B[n]
    r = {j: list(pl) for j, pl in A.items()}
    while r:
        d = max(r)
        if d < n:
            break
        lr = r[d]
        new = {j: _ulmul(pl, lb) for j, pl in r.items()}
        for j, pl in B.items():
            jj = j + d - n
            new[jj] = _ulsub(new.get(jj, []), _ulmul(pl, lr))
        r = {j: pl for j, pl in new.items() if pl}
    return r


def _ulist_of(f, axis):
    # coefficient list of a poly supported on one axis (0: powers of p)
    deg = max(m[axis] for m in f)
    out = [_F0] * (deg + 1)
    for m, c in f.items():
        out[m[axis]] = c
    return out


def _from_ulist(pl, axis):
    if axis == 0:
        return {(i, 0): c for i, c in enumerate(pl) if c}
    return {(0, j): c for j, c in enumerate(pl) if c}


def _pure_axis(f):
    # 0 if f involves only p, 1 if only q, None if mixed (f non-constant)
    has_p = any(i for i, _ in f)
    has_q = any(j for _, j in f)
    if has_p and not has_q:
        return 0
    if has_q and not has_p:
        return 1
    return None


def _axis_content(f, axis):
    # gcd of the univariate-in-`axis` slices of f (grouped by the other
    # exponent); this is the largest pure-axis divisor of f
    slices: dict = {}
    for (i, j), c in f.items():
        other = j if axis == 0 else i
        key = i if axis == 0 else j
        slices.setdefault(other, {})[key] = c
    g: list = []
    for d in slices.values():
        pl = [_F0] * (max(d) + 1)
        for k, c in d.items():
            pl[k] = c
        g = _ulist_gcd(g, pl)
        if len(g) == 1:
            break
    return g


def _pgcd(f, g):
    """gcd in Q[p, q]; scale is arbitrary but deterministic."""
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    # strip monomial content from each argument
    fi = min(i for i, _ in f)
    fj = min(j for _, j in f)
    gi = min(i for i, _ in g)
    gj = min(j for _, j in g)
    f0 = _pshift(f, -fi, -fj) if (fi or fj) else f
    g0 = _pshift(g, -gi, -gj) if (gi or gj) else g
    ci, cj = min(fi, gi), min(fj, gj)
    if len(f0) == 1 or len(g0) == 1:
        # a stripped single term is a constant: no non-monomial factor
        core = _POLY_ONE
    else:
        core = _pgcd_core(f0, g0)
    return _pshift(core, ci, cj) if (ci or cj) else dict(core)


def _pgcd_core(f0, g0):
    # both arguments stripped of monomial factors and non-constant
    ax_f, ax_g = _pure_axis(f0), _pure_axis(g0)
    if ax_f is not None and ax_g is not None:
        if ax_f != ax_g:
            return dict(_POLY_ONE)  # univariate in different variables
        return _from_ulist(
            _ulist_gcd(_ulist_of(f0, ax_f), _ulist_of(g0, ax_f)), ax_f)
    if ax_g is not None:
        # any common divisor of a pure-axis poly is pure-axis itself
        return _from_ulist(
            _ulist_gcd(_axis_content(f0, ax_g), _ulist_of(g0, ax_g)), ax_g)
    if ax_f is not None:
        return _from_ulist(
            _ulist_gcd(_axis_content(g0, ax_f), _ulist_of(f0, ax_f)), ax_f)
    # peel one-variable content: the full axis content of a polynomial is
    # coprime to its cofactor, so the gcd splits multiplicatively
    for one, other in ((g0, f0), (f0, g0)):
        for axis in (1, 0):
            cont = _axis_content(one, axis)
            if len(cont) > 1:
                d = _from_ulist(cont, axis)
                rest = _pdiv_exact(one, d)
                return _pmul(_pgcd(other, d), _pgcd(other, rest))
    # both arguments are content-free and genuinely bivariate
    A, B = _cols(f0), _cols(g0)
    X, Y = A, B
    if max(X) < max(Y):
        X, Y = Y, X
    while Y:
        R = _cols_prem(X, Y)
        if R:
            c = _cols_content(R)
            R = _cols_div(R, c)
        X, Y = Y, R
    return _from_cols(X)


def _pdiv_exact(f, g):
    """Exact division in Q[p, q]; raises if g does not divide f."""
    if not f:
        return {}
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(g) == 1:
        (gi, gj), gc = next(iter(g.items()))
        out = {}
        for (i, j), c in f.items():
            if i < gi or j < gj:
                raise ArithmeticError("inexact polynomial division")
            out[(i - gi, j - gj)] = c / gc
        return out
    A, B = _cols(f), _cols(g)
    n = max(B)
    lb = B[n]
    out = {}
    while A:
        d = max(A)
        if d < n:
            raise ArithmeticError("inexact polynomial division")
        c = _udiv_exact(A[d], lb)
        out[d - n] = c
        for j, pl in B.items():
            jj = j + d - n
            s = _ulsub(A.get(jj, []), _ulmul(pl, c))
            if s:
                A[jj] = s
            elif jj in A:
                del A[jj]
    return _from_cols(out)


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

# tag of a Laurent value with at least one non-integer coefficient
_RATIONAL = "rational"


def _laurent(terms):
    """(terms, tag) of a Laurent dict, with integral coefficients as ints."""
    tag = None
    for m, c in terms.items():
        if c.__class__ is not int:
            c = Fraction(c)
            if c.denominator == 1:
                terms[m] = c.numerator
            else:
                terms[m] = c
                tag = _RATIONAL
    return terms, tag


def _reduce(num, den):
    """(terms, tag) of the canonical form of num/den (den nonzero)."""
    num = {m: Fraction(c) for m, c in num.items() if c}
    den = {m: Fraction(c) for m, c in den.items() if c}
    if not num:
        return {}, None
    if len(den) > 1:
        g = _pgcd(num, den)
        if len(g) != 1 or next(iter(g)) != (0, 0):
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        c = den[min(den, key=_gkey)]
        if c != 1:
            num = _pscale(num, 1 / c)
            den = _pscale(den, 1 / c)
        if len(den) > 1:
            return num, den
    # a monomial denominator: the value is a Laurent polynomial
    (di, dj), dc = next(iter(den.items()))
    return _laurent({(i - di, j - dj): c / dc for (i, j), c in num.items()})


class ParamScalar:
    """A rational function in p and q over Q, always in canonical form.

    Instances are immutable value objects; all arithmetic is exact.
    ``num`` and ``den`` are read-only views of the reduced fraction.
    """

    # _d is None or _RATIONAL: _n is a Laurent dict, with int or with
    # some Fraction coefficients; otherwise _n/_d is a reduced fraction
    # whose denominator _d is not a monomial
    __slots__ = ("_n", "_d")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = {(0, 0): num}
        terms, tag = _laurent({m: c for m, c in num.items() if c})
        if den is not None:
            terms, tag = _divide(_new(terms, tag), ParamScalar(den))
        _set_n(self, terms)
        _set_d(self, tag)

    def __setattr__(self, *args):
        raise AttributeError("ParamScalar is immutable")

    def _parts(self):
        # numerator and denominator polynomials, exponents >= 0
        n, d = self._n, self._d
        if d.__class__ is dict:
            return n, d
        si = min([0] + [i for i, _ in n])
        sj = min([0] + [j for _, j in n])
        if not (si or sj):
            return n, _POLY_ONE
        return _pshift(n, -si, -sj), {(-si, -sj): 1}

    @property
    def num(self):
        return MappingProxyType(
            {m: Fraction(c) for m, c in self._parts()[0].items()})

    @property
    def den(self):
        return MappingProxyType(
            {m: Fraction(c) for m, c in self._parts()[1].items()})

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self._n

    def is_one(self):
        return self._d is None and self._n == {(0, 0): 1}

    def is_constant(self):
        n = self._n
        return self._d.__class__ is not dict and (
            not n or (len(n) == 1 and (0, 0) in n))

    def is_integer(self):
        return self._d is None and self.is_constant()

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._n.get((0, 0), 0))

    def __bool__(self):
        return bool(self._n)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return _combine(self, other, _padd)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return _combine(self, other, _psub)

    def __rsub__(self, other):
        return scalar(other) - self

    def __neg__(self):
        return _new(_pneg(self._n), self._d)

    def __mul__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        a, b = self._d, other._d
        if a is None and b is None:
            return _new(_pmul(self._n, other._n), None)
        if a.__class__ is not dict and b.__class__ is not dict:
            return _new(*_laurent(_pmul(self._n, other._n)))
        sn, sd = self._parts()
        on, od = other._parts()
        return _new(*_reduce(_pmul(sn, on), _pmul(sd, od)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not ParamScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamScalar(other)
        return _new(*_divide(self, other))

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
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if self.is_constant():
            return hash(self.as_fraction())
        d = self._d
        return hash((frozenset(self._n.items()),
                     frozenset(d.items()) if d.__class__ is dict else None))

    # -- evaluation and rendering -------------------------------------------

    def evaluate(self, p_val, q_val):
        """Evaluate at numeric parameter values; exact on Fractions."""
        num, den = self._parts()
        dv = _peval(den, p_val, q_val)
        if dv == 0:
            raise ZeroDivisionError(
                f"pole of {self} at p={p_val}, q={q_val}")
        nv = _peval(num, p_val, q_val)
        # int coefficients at int arguments still divide exactly
        return (Fraction(nv) if nv.__class__ is int else nv) / dv

    def subs_swap(self):
        """The image under exchanging p and q."""
        n, d = self._n, self._d
        swapped = {(j, i): c for (i, j), c in n.items()}
        if d.__class__ is not dict:
            return _new(swapped, d)
        return ParamScalar(swapped, {(j, i): c for (i, j), c in d.items()})

    def __str__(self):
        num, den = self._parts()
        if den is _POLY_ONE:
            return _poly_str(num)
        return f"{_wrap(_poly_str(num))}/{_wrap(_poly_str(den))}"

    def __repr__(self):
        return f"ParamScalar({str(self)!r})"


_set_n = ParamScalar._n.__set__
_set_d = ParamScalar._d.__set__


def _new(terms, tag) -> ParamScalar:
    # raw builder for canonical (terms, tag) pairs
    x = object.__new__(ParamScalar)
    _set_n(x, terms)
    _set_d(x, tag)
    return x


def _combine(x, y, op):
    # x + y or x - y, with op the matching polynomial helper
    a, b = x._d, y._d
    if a is None and b is None:
        return _new(op(x._n, y._n), None)
    if a.__class__ is not dict and b.__class__ is not dict:
        return _new(*_laurent(op(x._n, y._n)))
    xn, xd = x._parts()
    yn, yd = y._parts()
    if xd == yd:
        return _new(*_reduce(op(xn, yn), xd))
    return _new(*_reduce(op(_pmul(xn, yd), _pmul(yn, xd)), _pmul(xd, yd)))


def _divide(x, y):
    if not y._n:
        raise ZeroDivisionError("division by zero polynomial")
    xn, xd = x._parts()
    yn, yd = y._parts()
    return _reduce(_pmul(xn, yd), _pmul(xd, yn))


def scalar_arith(x: ParamScalar, y: ParamScalar, op: str) -> ParamScalar:
    """Named dispatch over the four field operations."""
    x, y = scalar(x), scalar(y)
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError(f"unknown operation {op!r}")


def scalar_eval(x: ParamScalar, p_val, q_val):
    """Evaluate at numeric parameters (function form of .evaluate)."""
    return scalar(x).evaluate(p_val, q_val)


def scalar(x) -> ParamScalar:
    """Promote an int or Fraction to a ParamScalar."""
    if isinstance(x, ParamScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamScalar(x)
    raise TypeError(f"cannot promote {type(x).__name__} to ParamScalar")


ZERO = _new({}, None)
ONE = _new({(0, 0): 1}, None)
P = _new({(1, 0): 1}, None)
Q = _new({(0, 1): 1}, None)

_PPOW_CACHE: dict[int, ParamScalar] = {0: ONE, 1: P}
_QPOW_CACHE: dict[int, ParamScalar] = {0: ONE, 1: Q}


def ppow(k: int) -> ParamScalar:
    """p^k for a signed exponent (negative k gives 1/p^|k|)."""
    hit = _PPOW_CACHE.get(k)
    if hit is None:
        hit = _PPOW_CACHE[k] = _new({(k, 0): 1}, None)
    return hit


def qpow(k: int) -> ParamScalar:
    """q^k for a signed exponent."""
    hit = _QPOW_CACHE.get(k)
    if hit is None:
        hit = _QPOW_CACHE[k] = _new({(0, k): 1}, None)
    return hit


# ---------------------------------------------------------------------------
# Gauss binomials
# ---------------------------------------------------------------------------

_QBIN_ROWS: dict = {}


def qbinomial(n: int, k: int, param: str = "q") -> ParamScalar:
    """The Gauss binomial coefficient as a polynomial in the parameter.

    Computed by the deformed Pascal recursion
    ``[n, k] = [n-1, k-1] + q^k [n-1, k]`` (polynomial arithmetic only),
    which matches reading off coefficients of ``(x + y)^n`` in the
    algebra with ``yx = qxy``.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"qbinomial({n}, {k}) is undefined")
    if param not in ("p", "q"):
        raise ValueError("param must be 'p' or 'q'")
    rows = _QBIN_ROWS.setdefault(param, [[ONE]])
    sym = Q if param == "q" else P
    while len(rows) <= n:
        prev = rows[-1]
        i = len(rows)
        row = [ONE]
        spow = ONE
        for j in range(1, i):
            spow = spow * sym
            row.append(prev[j - 1] + spow * prev[j])
        row.append(ONE)
        rows.append(row)
    return rows[n][k]


def qbinomial_quotient(n: int, k: int, param: str = "q") -> ParamScalar:
    """The Gauss binomial via the quotient-of-products formula.

    Kept as an independent cross-check of :func:`qbinomial`; the
    intermediate values are genuine rational functions.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"qbinomial({n}, {k}) is undefined")
    sym = Q if param == "q" else P

    def rising(j):
        out = ONE
        power = ONE
        for i in range(1, j + 1):
            power = power * sym
            out = out * (power - ONE)
        return out

    return rising(n) / (rising(k) * rising(n - k))
