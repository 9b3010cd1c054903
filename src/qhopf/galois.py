"""The strong connection of the circle fibration and its identities.

The lifted canonical map sends s (x) t to s * Delta_R(t); the freeness
witnesses below exhibit 1 (x) u^k in its image for every k.  The
connection ell assigns to u^k a tensor built from the seeds

    ell(u)  = a* (x) a + q b(1-aa*) (x) b*,
    ell(u*) = b* (x) b + p a(1-bb*) (x) a*,

by sandwiching: ell(u^k) = sum_i  x_i ell(u^(k-1)) y_i  with the seed
terms x_i (x) y_i acting on the left leg from the left and on the
right leg from the right (mirror recursion for negative powers).  The
closed form is a Gauss-binomial sum; multiplying the two legs of
ell(u^k) together telescopes to 1 (the partition identity).
"""

from __future__ import annotations

from .scalars import ONE, ppow, qbinomial, qpow
from .hopf import CotensorElement, _power
from .s3core import (AlgElement, BasisMonomial, UNIT_MONO, _checked,
                     _mono_product)
from .sparse import SparseElement, bilinear, extend

__all__ = [
    "TensorElement",
    "connection_seed",
    "strong_connection",
    "strong_connection_closed",
    "lifted_can",
    "multiply_legs",
    "partition_identity_holds",
    "galois_witness",
    "check_connection_properties",
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
            cs = str(c)
            if " + " in cs or " - " in cs or cs.startswith("-"):
                cs = f"({cs})"
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


def connection_seed(sign: str) -> TensorElement:
    """The degree +1 / -1 value of the connection."""
    if sign == "+":
        return _SEED_PLUS
    if sign == "-":
        return _SEED_MINUS
    raise ValueError("sign must be '+' or '-'")


_CONN_CACHE: dict[int, TensorElement] = {}


def strong_connection(k: int) -> TensorElement:
    """Value of the connection on u^k, computed by the sandwich recursion.

    The recursion runs as a loop upward from the largest cached power of
    the same sign, so the stack depth does not grow with |k|.
    """
    k = _power(k)
    step, seed = (1, _SEED_PLUS) if k > 0 else (-1, _SEED_MINUS)
    j = k
    while j and j not in _CONN_CACHE:
        j -= step
    out = _CONN_CACHE.get(j)
    if out is None:
        out = _CONN_CACHE[0] = TensorElement.unit()
    while j != k:
        j += step
        out = _CONN_CACHE[j] = _sandwich(seed, out)
    return out


def strong_connection_closed(n: int, sign: str = "+") -> TensorElement:
    """Closed Gauss-binomial form of the connection on u^n or u*^n.

    For the + sign the k-th summand is
    [n, k]_q q^(n-k) (1-aa*)^(n-k) a*^k b^(n-k)  (x)  a^k b*^(n-k);
    the - sign exchanges a with b and q with p.
    """
    if _power(n) < 1:
        raise ValueError("closed form needs a positive power")
    out: dict = {}
    if sign == "+":
        for k in range(n + 1):
            # reordering (1-aa*)^(n-k) a*^k into a*^k (1-aa*)^(n-k)
            # gives q^(-k(n-k))
            coeff = qbinomial(n, k) * qpow(n - k - k * (n - k))
            left = BasisMonomial(-k, n - k, 0, n - k)
            right = BasisMonomial(k, 0, 0, -(n - k))
            out[(left, right)] = coeff
    elif sign == "-":
        for k in range(n + 1):
            coeff = qbinomial(n, k, param="p") * ppow(n - k)
            left = BasisMonomial(n - k, 0, n - k, -k)
            right = BasisMonomial(-(n - k), 0, 0, k)
            out[(left, right)] = coeff
    else:
        raise ValueError("sign must be '+' or '-'")
    # valid keys (one flag exponent is 0) and nonzero coefficients
    return TensorElement._raw(out)


def lifted_can(t: TensorElement) -> CotensorElement:
    """Apply the coaction to the right leg and multiply the algebra legs."""
    def image(sr):
        w = sr[1].winding
        return [((m, w), k) for m, k in _mono_product(*sr)]
    return CotensorElement._raw(extend(t.terms, image))


def multiply_legs(t: TensorElement) -> AlgElement:
    """The multiplication map applied to a two-leg tensor."""
    return AlgElement._raw(extend(t.terms, lambda sr: _mono_product(*sr)))


def partition_identity_holds(n: int, sign: str = "+") -> bool:
    """Multiplying the legs of the closed form telescopes to 1."""
    return multiply_legs(strong_connection_closed(n, sign)) == AlgElement.one()


def galois_witness(k: int) -> TensorElement:
    """A preimage of 1 (x) u^k under the lifted canonical map.

    The product-of-preimages rule (witnesses sum_i h_i (x) h~_i for
    1 (x) h and sum_j g_j (x) g~_j for 1 (x) g give
    sum_ij g_j h_i (x) h~_i g~_j for 1 (x) hg), iterated from the degree
    +-1 seeds, is the sandwich recursion of the connection, so the
    witness is the connection value; its preimage property is checked.
    """
    out = strong_connection(k)
    if lifted_can(out) != CotensorElement({(UNIT_MONO, k): ONE}):
        raise AssertionError(f"witness for power {k} failed verification")
    return out


def check_connection_properties(k_max: int) -> dict:
    """Verify the connection identities exactly for all |k| <= k_max.

    (i)   lifted canonical map of ell(u^k) equals 1 (x) u^k;
    (ii)  right colinearity: the right legs all sit in winding k;
    (iii) left colinearity: the left legs all sit in winding -k;
    (iv)  multiplying the legs gives 1 (the partition identity).
    """
    if _power(k_max) < 1:
        raise ValueError("k_max must be positive")
    failures = []
    checks = []
    for k in range(-k_max, k_max + 1):
        ell = strong_connection(k)
        target = CotensorElement({(UNIT_MONO, k): ONE})
        got = lifted_can(ell)
        ok1 = got == target
        if not ok1:
            failures.append({"k": k, "identity": "lifted_can",
                             "difference": (got - target).text()})
        ok2 = all(r.winding == k for _, r in ell.terms)
        if not ok2:
            failures.append({"k": k, "identity": "right_colinearity",
                             "difference": "winding mismatch in right leg"})
        ok3 = all(s.winding == -k for s, _ in ell.terms)
        if not ok3:
            failures.append({"k": k, "identity": "left_colinearity",
                             "difference": "winding mismatch in left leg"})
        prod = multiply_legs(ell)
        ok4 = prod == AlgElement.one()
        if not ok4:
            failures.append({"k": k, "identity": "counit_law",
                             "difference": (prod - AlgElement.one()).text()})
        checks.append({"k": k, "lifted_can": ok1, "right_colinearity": ok2,
                       "left_colinearity": ok3, "counit_law": ok4})
    return {"k_max": k_max, "pass": not failures, "checks": checks,
            "failures": failures}
