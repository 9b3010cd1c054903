"""The strong connection of the circle fibration and its identities.

The lifted canonical map sends s (x) t to s * Delta_R(t).  The
connection ell is defined by the seeds

    ell(u)  = a* (x) a + q b(1-aa*) (x) b*,
    ell(u*) = b* (x) b + p a(1-bb*) (x) a*,

and by sandwiching: ell(u^k) = sum_i  x_i ell(u^(k-1)) y_i  with the
seed terms x_i (x) y_i acting on the left leg from the left and on the
right leg from the right (mirror recursion for negative powers).  This
is the product-of-preimages rule (witnesses sum_i h_i (x) h~_i for
1 (x) h and sum_j g_j (x) g~_j for 1 (x) g give sum_ij g_j h_i (x)
h~_i g~_j for 1 (x) hg) iterated from the degree +-1 seeds, so
ell(u^k) is the freeness witness, a preimage of 1 (x) u^k under the
lifted canonical map.  :func:`strong_connection` serves every value
from the closed Gauss-binomial form; ``verify galois`` and the tests
walk the recursion (:func:`_sandwich`) and compare.  Multiplying the
legs of ell(u^k) together telescopes to 1 (the partition identity);
:func:`connection_defects` checks this and the other identities.
"""

from __future__ import annotations

from .scalars import ONE, _wrap, ppow, qbinomial, qpow
from .hopf import CotensorElement, _power
from .s3core import (AlgElement, BasisMonomial, UNIT_MONO, _checked,
                     _mono_product)
from .sparse import SparseElement, bilinear, extend

__all__ = [
    "TensorElement",
    "strong_connection",
    "strong_connection_closed",
    "lifted_can",
    "multiply_legs",
    "connection_defects",
]


class TensorElement(SparseElement):
    """Element of (sphere algebra) (x) (sphere algebra), sparse."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        s, t = key
        return _checked(s), _checked(t)

    @classmethod
    def unit(cls):
        return cls({(UNIT_MONO, UNIT_MONO): ONE})

    def json_terms(self) -> list[dict]:
        out = []
        for (s, t), c in self.sorted_terms():
            out.append({
                "left": {"mu": s.mu, "m": s.m, "n": s.n, "nu": s.nu},
                "right": {"mu": t.mu, "m": t.m, "n": t.n, "nu": t.nu},
                "coeff": str(c),
            })
        return out

    def text(self) -> str:
        if not self._d:
            return "0"
        bits = []
        for (s, t), c in self.sorted_terms():
            cs = _wrap(str(c))
            lead = "" if cs == "1" else f"{cs}*"
            bits.append(f"{lead}{s.text()} (x) {t.text()}")
        return " + ".join(bits)


def _sandwich(outer: TensorElement, inner: TensorElement) -> TensorElement:
    # sum over outer terms x (x) y of  (x . inner-left) (x) (inner-right . y)
    def image(xy, st):
        (x, y), (s, t) = xy, st
        right = _mono_product(t, y)
        return [((lm, rm), lc if rc is ONE else rc if lc is ONE else lc * rc)
                for lm, lc in _mono_product(x, s) for rm, rc in right]
    return TensorElement._raw(bilinear(outer._d, inner._d, image))


# seeds: ell(u) and ell(u*)
_SEED_PLUS = TensorElement({
    (BasisMonomial(-1, 0, 0, 0), BasisMonomial(1, 0, 0, 0)): ONE,
    (BasisMonomial(0, 1, 0, 1), BasisMonomial(0, 0, 0, -1)): qpow(1),
})
_SEED_MINUS = TensorElement({
    (BasisMonomial(0, 0, 0, -1), BasisMonomial(0, 0, 0, 1)): ONE,
    (BasisMonomial(1, 0, 1, 0), BasisMonomial(-1, 0, 0, 0)): ppow(1),
})


def strong_connection(k: int) -> TensorElement:
    """Value of the connection on u^k, in closed Gauss-binomial form.

    For k = n > 0 the j-th summand is
    [n, j]_q q^(n-j) (1-aa*)^(n-j) a*^j b^(n-j)  (x)  a^j b*^(n-j);
    k = -n exchanges a with b and q with p, and k = 0 gives the unit.
    """
    n = abs(_power(k))
    if k > 0:
        # reordering (1-aa*)^(n-j) a*^j into a*^j (1-aa*)^(n-j) gives
        # q^(-j(n-j))
        out = {(BasisMonomial(-j, n - j, 0, n - j),
                BasisMonomial(j, 0, 0, -(n - j))):
               qbinomial(n, j) * qpow(n - j - j * (n - j))
               for j in range(n + 1)}
    elif k < 0:
        out = {(BasisMonomial(n - j, 0, n - j, -j),
                BasisMonomial(-(n - j), 0, 0, j)):
               qbinomial(n, j, param="p") * ppow(n - j)
               for j in range(n + 1)}
    else:
        return TensorElement.unit()
    # valid keys (one flag exponent is 0) and nonzero coefficients
    return TensorElement._raw(out)


def strong_connection_closed(n: int, sign: str = "+") -> TensorElement:
    """The connection on u^n (sign "+") or on u*^n (sign "-"), n >= 1."""
    if _power(n) < 1 or sign not in ("+", "-"):
        raise ValueError("closed form needs a power n >= 1 and a sign "
                         "'+' or '-'")
    return strong_connection(n if sign == "+" else -n)


def lifted_can(t: TensorElement) -> CotensorElement:
    """Apply the coaction to the right leg and multiply the algebra legs."""
    def image(sr):
        w = sr[1].winding
        return [((m, w), k) for m, k in _mono_product(*sr)]
    return CotensorElement._raw(extend(t.terms, image))


def multiply_legs(t: TensorElement) -> AlgElement:
    """The multiplication map applied to a two-leg tensor."""
    return AlgElement._raw(extend(t.terms, lambda sr: _mono_product(*sr)))


def connection_defects(ell: TensorElement, k: int) -> dict[str, str]:
    """The connection identities that ``ell`` fails as the value on u^k.

    lifted_can:        the lifted canonical map gives 1 (x) u^k;
    right_colinearity: the right legs all sit in winding k;
    left_colinearity:  the left legs all sit in winding -k;
    counit_law:        multiplying the legs gives 1 (the partition identity).

    Each failed identity maps to its difference; an empty dict means
    that every identity holds.
    """
    k = _power(k)
    out = {}
    diff = lifted_can(ell) - CotensorElement({(UNIT_MONO, k): ONE})
    if diff:
        out["lifted_can"] = diff.text()
    if any(r.winding != k for _, r in ell.terms):
        out["right_colinearity"] = "winding mismatch in right leg"
    if any(s.winding != -k for s, _ in ell.terms):
        out["left_colinearity"] = "winding mismatch in left leg"
    diff = multiply_legs(ell) - AlgElement.one()
    if diff:
        out["counit_law"] = diff.text()
    return out
