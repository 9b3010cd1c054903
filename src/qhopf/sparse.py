"""Finite linear combinations over Q(p, q): one arithmetic for every element.

Every element the package builds is a finite sum  sum_t c_t t  of basis
keys t with nonzero :class:`~qhopf.scalars.ParamScalar` coefficients:
sphere monomials, powers of u, (monomial, power) pairs of the coaction,
monomial pairs of the connection tensors, and the disc monomials of the
two charts.  :class:`SparseElement` is the only code that adds,
subtracts, negates, scales, compares and hashes such sums.  A subclass
supplies its key check (``_key``), its product of two keys
(``_mono_mul``) and its rendering.

:func:`accumulate` is the one loop that sums coefficients per key and
drops the keys whose sum vanishes; :func:`extend` (linear maps given on
keys) and :func:`bilinear` (products given on key pairs) feed it; a call
worth packing sums as big integers first (``scalars._packed_sums``).

Elements are values.  ``terms`` is a read-only view, attributes cannot
be assigned, and the internal builder ``_raw`` takes ownership of a
dict that nobody else holds, so a cached element cannot be changed
through a returned reference.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

from .scalars import ONE, ParamScalar, _packed_sums, format_linear, scalar

__all__ = ["SparseElement", "accumulate", "extend", "bilinear"]

_SCALARS = (ParamScalar, int, Fraction)


def accumulate(out: dict, blocks, subtract: bool = False) -> dict:
    """Add (or subtract) f * c at key t into ``out``, for every block
    (f, pairs) of ``blocks`` and every (t, c) of its pairs.

    A key whose sum vanishes drops out.  The factor f may be a pair
    (f1, f2) for f1 f2; pairs are read twice, so none is an iterator.
    """
    blocks = blocks if blocks.__class__ is list else list(blocks)
    sums = _packed_sums(blocks) if blocks else None
    if sums is not None:
        blocks = ((ONE, sums.items()),)
    get = out.get
    for f, pairs in blocks:
        if f.__class__ is tuple and pairs:
            f = f[0] * f[1]
        for t, c in pairs:
            if f is not ONE:
                c = f if c is ONE else f * c
            s = get(t)
            if s is None:
                s = -c if subtract else c
            else:
                s = s - c if subtract else s + c
            if s:
                out[t] = s
            elif t in out:
                del out[t]
    return out


def extend(terms, f) -> dict:
    """Linear extension of a map on keys: the sum of c f(t) over the terms.

    ``f(t)`` returns the image of one key as ((key, coeff), ...).  The
    image of a lone term is only scaled, so it must list distinct keys
    with nonzero coefficients (as every monomial product and element does).
    """
    if len(terms) == 1:
        (t, c), = terms.items()
        return {s: c if e is ONE else c * e for s, e in f(t)}
    # map and zip keep the per-key iteration in C
    return accumulate({}, zip(terms.values(), map(f, terms)))


def bilinear(x, y, f) -> dict:
    """Bilinear extension: the sum of c1 c2 f(t1, t2) over pairs of terms."""
    if len(x) == len(y) == 1:   # one product: nothing to sum, as in extend
        (t1, c1), (t2, c2) = *x.items(), *y.items()
        c = c1 * c2 if (m := f(t1, t2)) else None
        return {s: c if e is ONE else c * e for s, e in m}
    y = y.items()
    # no block for a vanishing f(t1, t2); accumulate forms c1 c2
    return accumulate({}, [((c1, c2), m) for t1, c1 in x.items()
                           for t2, c2 in y if (m := f(t1, t2))])


class SparseElement:
    """A finite linear combination of keys, zero terms absent.

    ``tag`` labels the algebra of a family whose members must agree
    (the disc parameter); mixing two tags raises ``ValueError``.
    """

    __slots__ = ("_d",)
    tag = None
    _mono_mul = None     # product of two keys as ((key, coeff), ...)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            key = self._key
            for t, c in terms.items():
                c = scalar(c)
                if c:
                    clean[key(t)] = c
        _set_d(self, clean)

    @staticmethod
    def _key(t):
        # validates and normalizes a key given to the public constructor
        return t

    @classmethod
    def _raw(cls, d: dict, tag=None):
        """Unchecked builder: ``d`` has nonzero coefficients and no other owner."""
        el = _new(cls)
        _set_d(el, d)
        if tag is not None:
            _setattr(el, "tag", tag)
        return el

    def _like(self, d: dict):
        return self._raw(d, self.tag)

    @property
    def terms(self):
        """Read-only view {key: coefficient}."""
        return MappingProxyType(self._d)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the canonical data, never setattr
        return self._raw, (dict(self._d), self.tag)

    # -- vector space -------------------------------------------------------

    def _same_space(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return False
        if other.tag != self.tag:
            raise ValueError(f"mixed tags {self.tag!r} and {other.tag!r}")
        return True

    def __add__(self, other):
        if not self._same_space(other):
            return NotImplemented
        return self._like(accumulate(dict(self._d),
                                     ((ONE, other._d.items()),)))

    def __sub__(self, other):
        if not self._same_space(other):
            return NotImplemented
        return self._like(accumulate(dict(self._d),
                                     ((ONE, other._d.items()),), True))

    def __neg__(self):
        return self._like({t: -c for t, c in self._d.items()})

    def scale(self, c):
        c = scalar(c)
        if not c:
            return self._like({})
        return self._like({t: k * c for t, k in self._d.items()})

    def __mul__(self, other):
        if self._mono_mul is not None and self._same_space(other):
            return self._product(other)
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything, so right and left scaling agree
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def _product(self, other):
        return self._like(bilinear(self._d, other._d, self._mono_mul))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._d == other._d and self.tag == other.tag

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self):
        return bool(self._d)

    # -- structure helpers --------------------------------------------------

    def _parts(self, split, cls, tag=None) -> dict:
        # {label: cls element}, sorted by label, where split(key) gives
        # (label, key of the part)
        parts: dict = {}
        for t, c in self._d.items():
            label, sub = split(t)
            parts.setdefault(label, {})[sub] = c
        return {w: cls._raw(d, tag) for w, d in sorted(parts.items())}

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self._d.items(), key=itemgetter(0))

    def text(self) -> str:
        return format_linear([(self._key_text(t), c)
                              for t, c in self.sorted_terms()])

    def __str__(self):
        return self.text()

    def __repr__(self):
        tag = "" if self.tag is None else f"{self.tag!r}, "
        return f"{type(self).__name__}({tag}{self.text()!r})"


_new = object.__new__
_setattr = object.__setattr__
_set_d = SparseElement._d.__set__
