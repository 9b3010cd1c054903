"""Quantum discs, local trivializations, and the two-chart gluing.

A quantum disc with parameter r is generated by x with
x* x - r x x* = 1 - r; its monomial basis is x_mu (1-xx*)^m with the
same signed-power convention as the sphere algebra, and two monomials
multiply by the closed-form disc product that the sphere uses for each
of its two sides (``s3core._disc_mul`` with s = r).  The sphere glues
two solid tori (disc (x) circle) over their boundary two-torus: the
chart maps send

    chart p:  a -> 1 (x) u,  b -> x (x) u*,
    chart q:  a -> y (x) u,  b -> 1 (x) u*,

the boundary map sends the disc generator to u, and the change of
trivialization twists by the antipode on the first leg.  An element of
the sphere algebra is a matching pair of its two chart images; the
gluing check verifies that matching condition.

A chart image is a substitution (:func:`qhopf.s3core.substitute`): the
images of the four generators and of the two flags 1 - g g* are built
once per chart and multiplied along the word of each basis monomial.
"""

from __future__ import annotations

from operator import itemgetter

from .scalars import ONE, ppow, qpow
from .hopf import LaurentElement, _over_powers_text, _power, coaction
from .s3core import (FLAG_A, FLAG_B, GENERATORS, AlgElement, BasisMonomial,
                     _disc_mul, _flag_text, _power_text, _word, monomial,
                     substitute)
from .sparse import SparseElement, extend

__all__ = [
    "DiscElement",
    "TrivializedElement",
    "disc_generator",
    "boundary",
    "boundary_tensor",
    "chi",
    "phi12",
    "gluing_check",
    "trivialization_colinear",
    "trivialization_over_base",
]


def _disc_key(t) -> tuple:
    # a disc monomial (mu, m): x_mu (1 - x x*)^m
    mu, m = t
    monomial(mu, m, 0, 0)   # integer indices, m >= 0
    return mu, m


# the powers of each disc's parameter, for its closed-form product
_SPOW = {"p": ppow, "q": qpow}


class _Tagged(SparseElement):
    """Elements over one quantum disc; the parameter tag is 'p' or 'q'."""

    __slots__ = ("tag",)

    def __init__(self, tag: str, terms=None):
        if tag not in ("p", "q"):
            raise ValueError("disc parameter tag must be 'p' or 'q'")
        object.__setattr__(self, "tag", tag)
        super().__init__(terms)


class DiscElement(_Tagged):
    """Element of one quantum disc; the parameter tag is 'p' or 'q'."""

    __slots__ = ()
    _key = staticmethod(_disc_key)

    @classmethod
    def one(cls, tag: str):
        return cls(tag, {(0, 0): ONE})

    def _mono_mul(self, t1: tuple, t2: tuple):
        return [((mu, m), c) for mu, m, c
                in _disc_mul(*t1, *t2, _SPOW[self.tag], self.tag)]

    def _key_text(self, t: tuple) -> str:
        mu, m = t
        sym = "x" if self.tag == "p" else "y"
        if not m:
            return _power_text(sym, mu) if mu else "1"
        flag = _flag_text(sym, m)
        return f"{_power_text(sym, mu)} {flag}" if mu else flag


def disc_generator(tag: str, starred: bool = False) -> DiscElement:
    return DiscElement(tag, {((-1, 0) if starred else (1, 0)): ONE})


def boundary(x: DiscElement) -> LaurentElement:
    """Restriction to the boundary circle: x -> u, so 1 - x x* -> 0."""
    return LaurentElement._raw(extend(
        x.terms, lambda t: () if t[1] else ((t[0], ONE),)))


# ---------------------------------------------------------------------------
# trivialized elements: disc (x) circle
# ---------------------------------------------------------------------------

class TrivializedElement(_Tagged):
    """Element of (one quantum disc) (x) (circle algebra)."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        t, k = key
        return _disc_key(t), _power(k)

    @classmethod
    def one(cls, tag: str):
        return cls(tag, {((0, 0), 0): ONE})

    def _mono_mul(self, x, y):
        # multiply the disc legs, add the circle powers
        (t1, k1), (t2, k2) = x, y
        k = k1 + k2
        return [(((mu, m), k), c) for mu, m, c
                in _disc_mul(*t1, *t2, _SPOW[self.tag], self.tag)]

    def text(self) -> str:
        return _over_powers_text(
            self._parts(itemgetter(1, 0), DiscElement, self.tag))


def _chart_images(leg: str, keys: tuple) -> dict:
    # the images of a, a*, b, b* (one (disc monomial, u power) key each)
    # and of the flags 1 - g g* built from them
    out = {g: TrivializedElement(leg, {k: ONE})
           for g, k in zip(GENERATORS, keys)}
    for f in (FLAG_A, FLAG_B):
        out[f] = TrivializedElement.one(leg) - out[f[0]] * out[f[1]]
    return out


# chart p: a -> 1 (x) u, b -> x (x) u*;  chart q: a -> y (x) u, b -> 1 (x) u*
_CHI_IMAGES = {
    "p": _chart_images("p", (((0, 0), 1), ((0, 0), -1),
                             ((1, 0), -1), ((-1, 0), 1))),
    "q": _chart_images("q", (((1, 0), 1), ((-1, 0), -1),
                             ((0, 0), -1), ((0, 0), 1))),
}
_CHI_ONE = {leg: TrivializedElement.one(leg) for leg in _CHI_IMAGES}


def _chi_mono(t: BasisMonomial, leg: str) -> TrivializedElement:
    return substitute(_word(t), _CHI_IMAGES[leg], _CHI_ONE[leg])


def chi(x: AlgElement, leg: str) -> TrivializedElement:
    """Chart image of a sphere element, by substitution of generators."""
    if leg not in ("p", "q"):
        raise ValueError("chart leg must be 'p' or 'q'")
    return TrivializedElement._raw(
        extend(x.terms, lambda t: _chi_mono(t, leg).terms.items()), leg)


# ---------------------------------------------------------------------------
# the boundary two-torus and the transition twist
# ---------------------------------------------------------------------------

def boundary_tensor(x: TrivializedElement) -> dict:
    """Boundary map on the disc leg: {(j, k): coeff} for u^j (x) u^k."""
    def image(key):
        (mu, m), k = key
        return () if m else (((mu, k), ONE),)
    return extend(x.terms, image)


def phi12(t: dict) -> dict:
    """Change of trivialization on the boundary: f (x) u^k -> f u^-k (x) u^k."""
    return extend(t, lambda jk: (((jk[0] - jk[1], jk[1]), ONE),))


def gluing_check(x: AlgElement) -> bool:
    """Both chart images agree on the boundary after the transition twist."""
    lhs = boundary_tensor(chi(x, "p"))
    rhs = phi12(boundary_tensor(chi(x, "q")))
    return lhs == rhs


def trivialization_colinear(x: AlgElement, leg: str) -> bool:
    """The chart map intertwines the coaction with the circle coproduct."""
    def image(key):
        t, w = key
        return [((d, k, w), c) for (d, k), c in _chi_mono(t, leg).terms.items()]
    lhs = extend(coaction(x).terms, image)
    rhs = {(d, k, k): c for (d, k), c in chi(x, leg).terms.items()}
    return lhs == rhs


def trivialization_over_base(x: AlgElement, leg: str) -> bool:
    """Images of coinvariant elements carry only the trivial circle power."""
    if not x.is_coinvariant():
        raise ValueError("input is not coinvariant")
    return all(k == 0 for _, k in chi(x, leg).terms)
