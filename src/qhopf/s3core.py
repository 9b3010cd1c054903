"""Normal forms in the coordinate *-algebra of the glued quantum 3-sphere.

The algebra is generated by a and b subject to

    a* a - q a a* = 1 - q,        b* b - p b b* = 1 - p,
    a b = b a,  a* b = b a*,      (1 - a a*)(1 - b b*) = 0,

and has the vector-space basis  a_mu (1-aa*)^m (1-bb*)^n b_nu  with
mu, nu in Z, m, n >= 0 and m*n = 0, where a_mu means a^mu for mu >= 0
and a*^|mu| for mu < 0 (same for b_nu).  Elements are finite linear
combinations of these monomials with :class:`~qhopf.scalars.ParamScalar`
coefficients.

The algebra is the tensor product of two quantum discs, D_q generated
by a and D_p generated by b, modulo (1 - aa*)(1 - bb*) = 0, and the
basis is the tensor basis without its part with m, n >= 1.  The
product of two basis monomials is one disc product per side, each in
closed form by the q-binomial theorem, with every term that carries
both flags dropped.  It is memoized per monomial pair, and multiplying
by one letter is the product with that letter's monomial.

A basis monomial is spelled as a word once, in ``_word``, with flag
letters for 1 - aa* and 1 - bb*.  :func:`substitute` multiplies images
along a word; the chart maps and the operator images use it.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple

from .scalars import ONE, ppow, qbinomial, qpow
from .sparse import SparseElement, bilinear

__all__ = [
    "BasisMonomial",
    "AlgElement",
    "GENERATORS",
    "UNIT_MONO",
    "mul",
    "monomial",
    "substitute",
    "iota_image",
]

GENERATORS = ("a", "a*", "b", "b*")


class BasisMonomial(NamedTuple):
    """Index (mu, m, n, nu) of a basis monomial; invariant m*n == 0."""

    mu: int
    m: int
    n: int
    nu: int

    @property
    def winding(self) -> int:
        """Total circle weight: each a or b* adds +1, each a* or b adds -1."""
        return self.mu - self.nu

    def shift_reach(self) -> int:
        return abs(self.mu) + abs(self.nu)

    def text(self) -> str:
        parts = []
        if self.mu:
            parts.append(_power_text("a", self.mu))
        if self.m:
            parts.append(_flag_text("a", self.m))
        if self.n:
            parts.append(_flag_text("b", self.n))
        if self.nu:
            parts.append(_power_text("b", self.nu))
        return " ".join(parts) if parts else "1"


def _power_text(g: str, e: int) -> str:
    """Rendering of g_e for e != 0: g^e, or g^*^|e| for e < 0."""
    if e > 0:
        return g if e == 1 else f"{g}^{e}"
    return f"{g}^*" if e == -1 else f"{g}^*^{-e}"


def _flag_text(g: str, m: int) -> str:
    """Rendering of (1 - g g*)^m for m >= 1."""
    return f"(1 - {g} {g}^*)" if m == 1 else f"(1 - {g} {g}^*)^{m}"


UNIT_MONO = BasisMonomial(0, 0, 0, 0)

# the letters of a word: the generators and a flag letter for each of
# 1 - a a* and 1 - b b*, with the basis monomial of each
FLAG_A = ("a", "a*")
FLAG_B = ("b", "b*")
_LETTER_MONO = {
    "a": BasisMonomial(1, 0, 0, 0),
    "a*": BasisMonomial(-1, 0, 0, 0),
    "b": BasisMonomial(0, 0, 0, 1),
    "b*": BasisMonomial(0, 0, 0, -1),
    FLAG_A: BasisMonomial(0, 1, 0, 0),
    FLAG_B: BasisMonomial(0, 0, 1, 0),
}


def monomial(mu: int, m: int, n: int, nu: int) -> BasisMonomial:
    """Validated constructor: integer indices, m, n >= 0 and m*n == 0."""
    if not type(mu) is type(m) is type(n) is type(nu) is int:
        raise ValueError("monomial indices must be integers")
    if m < 0 or n < 0:
        raise ValueError("flag exponents must be nonnegative")
    if m and n:
        raise ValueError("(1-aa*)^m (1-bb*)^n vanishes for m, n >= 1")
    return BasisMonomial(mu, m, n, nu)


# ---------------------------------------------------------------------------
# words and monomial products
# ---------------------------------------------------------------------------

def _word(t: BasisMonomial) -> tuple:
    """The letters of t left to right: a_mu (1-aa*)^m (1-bb*)^n b_nu."""
    mu, m, n, nu = t
    return (("a" if mu > 0 else "a*",) * abs(mu) + (FLAG_A,) * m
            + (FLAG_B,) * n + ("b" if nu > 0 else "b*",) * abs(nu))


def substitute(word, images: Mapping, one, mul=operator.mul):
    """Fold ``mul(out, images[g])`` over the letters g of ``word`` from
    ``one``: the product of the images, ``one`` for an empty word."""
    out = one
    for g in word:
        out = mul(out, images[g])
    return out


def _disc_mul(mu1, m1, mu2, m2, spow, param, lead=False):
    """(a_mu1 x^m1)(a_mu2 x^m2) in the quantum disc D_s as ((mu, m, c), ...).

    D_s is generated by a with a* a - s a a* = 1 - s, and x = 1 - a a*
    satisfies x a = s a x, a a* = 1 - x and a* a = 1 - s x.  Moving x^m1
    past a_mu2 gives s^(m1 mu2).  For opposite signs a^k a*^l and
    a*^k a^l expand by the q-binomial theorem into
    sum_j c_j a_(mu1+mu2) x^j over 0 <= j <= r = min(k, l), with
    d = l - r and [r, j]_s the Gauss binomial:

        a^k a*^l:  c_j = (-1)^j s^(-j(j-1)/2 - j(r-j) - j d) [r, j]_s,
        a*^k a^l:  c_j = (-1)^j s^(j(j+1)/2 + j d) [r, j]_s.

    ``spow`` is s^k and ``param`` names s for :func:`qbinomial`; a true
    ``lead`` keeps only the term j = 0.  The keys are distinct and the
    coefficients nonzero.
    """
    e, mu, m = m1 * mu2, mu1 + mu2, m1 + m2
    if lead or mu1 * mu2 >= 0:
        return ((mu, m, spow(e)),)
    r = min(abs(mu1), abs(mu2))
    d = abs(mu2) - r
    out = []
    for j in range(r + 1):
        if mu1 > 0:
            ej = e - j * (j - 1) // 2 - j * (r - j) - j * d
        else:
            ej = e + j * (j + 1) // 2 + j * d
        out.append((mu, m + j, spow(ej) * qbinomial(r, j, param, j & 1)))
    return out


def _mono_product(t1: BasisMonomial, t2: BasisMonomial):
    """Canonical expansion of the product t1 * t2 as ((mono, coeff), ...).

    The tensor product of one disc product per side, without the terms
    that carry both flags.  The a side is the D_q product of
    a_mu1 (1-aa*)^m1 and a_mu2 (1-aa*)^m2.  The b side (1-bb*)^n b_nu is
    the adjoint of the D_p monomial b_-nu (1-bb*)^n; the involution
    reverses products and fixes p, so the b side is the D_p product
    (b_-nu2 (1-bb*)^n2)(b_-nu1 (1-bb*)^n1), read back with nu = -mu'.
    """
    mu1, m1, n1, nu1 = t1
    mu2, m2, n2, nu2 = t2
    # a flag on each side makes the product 0; a side with one keeps it
    # in every term, so the other side needs only its term without one
    if (m1 or m2) and (n1 or n2):
        return ()
    right = _disc_mul(-nu2, n2, -nu1, n1, ppow, "p", m1 or m2)
    return tuple((BasisMonomial(mu, m, n, -nu), c * e)
                 for mu, m, c in _disc_mul(mu1, m1, mu2, m2, qpow, "q",
                                           n1 or n2)
                 for nu, n, e in right if not (m and n))


_MONO_MUL_CACHE: dict = {}


def _mono_mul(t1: BasisMonomial, t2: BasisMonomial):
    """:func:`_mono_product`, memoized; one-shot products skip the memo."""
    hit = _MONO_MUL_CACHE.get((t1, t2))
    if hit is None:
        hit = _MONO_MUL_CACHE[t1, t2] = _mono_product(t1, t2)
    return hit


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _checked(t) -> BasisMonomial:
    if not (isinstance(t, tuple) and len(t) == 4):
        raise ValueError(f"not a basis monomial index: {t!r}")
    return monomial(*t)


class AlgElement(SparseElement):
    """A finite linear combination of basis monomials, zero terms absent.

    The public constructor rejects invalid monomial indices (see
    :func:`monomial`).
    """

    __slots__ = ()
    _key = staticmethod(_checked)
    _mono_mul = staticmethod(_mono_mul)
    _key_text = staticmethod(BasisMonomial.text)

    @classmethod
    def zero(cls) -> "AlgElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgElement":
        return cls._raw({UNIT_MONO: ONE})

    @classmethod
    def generator(cls, name: str) -> "AlgElement":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return cls._raw({_LETTER_MONO[name]: ONE})

    @classmethod
    def from_monomial(cls, t: BasisMonomial, coeff=1) -> "AlgElement":
        return cls({t: coeff})

    def _product(self, other):
        # through the module binding: every sphere product enters mul
        return mul(self, other)

    # -- structure maps ------------------------------------------------------

    def star(self) -> "AlgElement":
        """The *-involution: a -> a*, b -> b*, coefficients fixed."""
        out = {}
        for t, c in self._d.items():
            mu, m, n, nu = t
            factor = qpow(-mu * m) * ppow(nu * n)
            out[BasisMonomial(-mu, m, n, -nu)] = c * factor
        return _raw(out)

    def winding_components(self) -> dict[int, "AlgElement"]:
        """Split by the circle weight mu - nu; the parts sum back to self."""
        return self._parts(lambda t: (t.winding, t), AlgElement)

    def is_coinvariant(self) -> bool:
        """True iff every monomial has winding 0 (self lies over the base)."""
        return all(t.winding == 0 for t in self._d)

    def shift_reach(self) -> int:
        """Largest |mu| + |nu| over the support; 0 for the zero element."""
        return max((t.shift_reach() for t in self._d), default=0)

    def json_terms(self) -> list[dict]:
        return [{"mu": t.mu, "m": t.m, "n": t.n, "nu": t.nu, "coeff": str(c)}
                for t, c in self.sorted_terms()]


_raw = AlgElement._raw


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mul(x: AlgElement, y: AlgElement) -> AlgElement:
    """Product in the algebra; bilinear extension of monomial products."""
    return _raw(bilinear(x._d, y._d, _mono_mul))


# ---------------------------------------------------------------------------
# the embedding of the base algebra
#
# The two-disc base is generated by f0 (selfadjoint) and f1; inside the
# sphere algebra they become f0 = b b*, f1 = b a, f1* = a* b*.  All
# images have winding 0.
# ---------------------------------------------------------------------------

_IOTA = {
    "f0": AlgElement({UNIT_MONO: ONE, BasisMonomial(0, 0, 1, 0): -ONE}),
    "f1": AlgElement({BasisMonomial(1, 0, 0, 1): ONE}),
    "f1*": AlgElement({BasisMonomial(-1, 0, 0, -1): ONE}),
}


def iota_image(name: str) -> AlgElement:
    """Image of a base generator: f0 -> bb*, f1 -> ba, f1* -> a*b*."""
    try:
        return _IOTA[name]
    except KeyError:
        raise ValueError(f"unknown base generator {name!r}") from None
