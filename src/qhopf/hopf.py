"""Laurent polynomials on the circle and the comodule structure.

The circle algebra is spanned by powers of the unitary u with the
group-like coalgebra structure (coproduct u -> u (x) u, counit 1,
antipode u -> u^-1).  The sphere algebra coacts by total circle weight:
a basis monomial of winding w maps to itself tensored with u^w.
"""

from __future__ import annotations

from operator import itemgetter

from .scalars import ONE, ZERO, ParamScalar
from .s3core import AlgElement, _checked, _mono_mul, mul
from .sparse import SparseElement, extend

__all__ = [
    "LaurentElement",
    "CotensorElement",
    "coproduct",
    "coaction",
    "coaction_is_coassociative",
    "coaction_is_multiplicative",
    "counit_law_holds",
]


def _power(k) -> int:
    # a key of the circle algebra: an exponent of u
    if type(k) is not int:
        raise ValueError(f"circle power must be an integer: {k!r}")
    return k


def _u_text(k: int) -> str:
    """Rendering of the basis element u^k."""
    return "1" if k == 0 else ("u" if k == 1 else f"u^{k}")


def _over_powers_text(parts: dict) -> str:
    """Rendering of {k: leg} as (leg) (x) u^k summands, 0 when empty."""
    if not parts:
        return "0"
    return " + ".join(f"({el.text()}) (x) {_u_text(k)}"
                      for k, el in parts.items())


class LaurentElement(SparseElement):
    """Finite linear combination of powers of u."""

    __slots__ = ()
    _key = staticmethod(_power)
    _mono_mul = staticmethod(lambda j, k: ((j + k, ONE),))
    _key_text = staticmethod(_u_text)

    @classmethod
    def one(cls):
        return cls({0: ONE})

    @classmethod
    def u_power(cls, k: int):
        return cls({k: ONE})

    def antipode(self) -> "LaurentElement":
        return self._like({-k: c for k, c in self._d.items()})

    def star(self) -> "LaurentElement":
        # coefficients are real rational functions, so * is the antipode
        return self.antipode()

    def counit(self) -> ParamScalar:
        return sum(self._d.values(), ZERO)

    def json_terms(self) -> list[dict]:
        return [{"k": k, "coeff": str(c)} for k, c in self.sorted_terms()]


def coproduct(x: LaurentElement) -> dict[tuple[int, int], ParamScalar]:
    """Group-like coproduct; every instance stays diagonal u^k (x) u^k."""
    return {(k, k): c for k, c in x.terms.items()}


# ---------------------------------------------------------------------------
# the coaction
# ---------------------------------------------------------------------------

def _cotensor_key(key):
    t, k = key
    return _checked(t), _power(k)


def _cotensor_mono_mul(x, y):
    # multiply the algebra legs, add the circle powers
    (t1, k1), (t2, k2) = x, y
    k = k1 + k2
    return [((t, k), w) for t, w in _mono_mul(t1, t2)]


class CotensorElement(SparseElement):
    """Element of (sphere algebra) (x) (circle algebra), sparse."""

    __slots__ = ()
    _key = staticmethod(_cotensor_key)
    _mono_mul = staticmethod(_cotensor_mono_mul)

    def json_terms(self) -> list[dict]:
        return [{"mu": t.mu, "m": t.m, "n": t.n, "nu": t.nu,
                 "u_power": k, "coeff": str(c)}
                for (t, k), c in sorted(self._d.items(),
                                        key=lambda kv: (kv[0][1], kv[0][0]))]

    def text(self) -> str:
        return _over_powers_text(self._parts(itemgetter(1, 0), AlgElement))


def coaction(x: AlgElement) -> CotensorElement:
    """Right coaction: a monomial of winding w goes to itself (x) u^w."""
    return CotensorElement._raw({(t, t.winding): c
                                 for t, c in x.terms.items()})


# ---------------------------------------------------------------------------
# coaction laws, computed on both sides
# ---------------------------------------------------------------------------

def coaction_is_coassociative(x: AlgElement) -> bool:
    """(coaction (x) id) after coaction matches (id (x) coproduct) after it."""
    lhs = {}
    rhs = {}
    for (t, k), c in coaction(x).terms.items():
        lhs[(t, t.winding, k)] = c
        rhs[(t, k, k)] = c
    return lhs == rhs


def coaction_is_multiplicative(x: AlgElement, y: AlgElement) -> bool:
    return coaction(mul(x, y)) == coaction(x) * coaction(y)


def counit_law_holds(x: AlgElement) -> bool:
    """(id (x) counit) after the coaction is the identity."""
    return AlgElement._raw(extend(coaction(x).terms,
                                  lambda key: ((key[0], ONE),))) == x
