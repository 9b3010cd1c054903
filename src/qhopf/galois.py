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

from fractions import Fraction
from typing import Mapping, Union

from .scalars import ONE, ParamScalar, ppow, qbinomial, qpow, scalar
from .hopf import CotensorElement
from .s3core import AlgElement, BasisMonomial, UNIT_MONO, _mono_mul, _raw

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

ScalarLike = Union[ParamScalar, int, Fraction]

PairKey = tuple  # (BasisMonomial, BasisMonomial)


class TensorElement:
    """Element of (sphere algebra) (x) (sphere algebra), sparse."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[PairKey, ScalarLike] | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = scalar(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def unit(cls):
        return cls({(UNIT_MONO, UNIT_MONO): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return TensorElement(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement({k: -c for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def scale(self, c: ScalarLike):
        c = scalar(c)
        return TensorElement({k: w * c for k, w in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

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
        if not self.terms:
            return "0"
        bits = []
        for (s, t), c in self.sorted_terms():
            cs = str(c)
            if " + " in cs or " - " in cs or cs.startswith("-"):
                cs = f"({cs})"
            lead = "" if cs == "1" else f"{cs}*"
            bits.append(f"{lead}{s.text()} (x) {t.text()}")
        return " + ".join(bits)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"TensorElement({self.text()!r})"


def _sandwich(outer: TensorElement, inner: TensorElement) -> TensorElement:
    # sum over outer terms x (x) y of  (x . inner-left) (x) (inner-right . y)
    out: dict = {}
    for (x, y), c in outer.terms.items():
        for (s, t), d in inner.terms.items():
            cd = c * d
            left = _mono_mul(x, s)
            right = _mono_mul(t, y)
            for lm, lc in left:
                clc = cd * lc
                for rm, rc in right:
                    key = (lm, rm)
                    v = out.get(key)
                    v = clc * rc if v is None else v + clc * rc
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
    return TensorElement(out)


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
    if n < 1:
        raise ValueError("closed form needs a positive power")
    out: dict = {}
    if sign == "+":
        for k in range(n + 1):
            # reorder (1-aa*)^(n-k) a*^k into a*^k (1-aa*)^(n-k)
            coeff = qbinomial(n, k) * qpow(n - k) * qpow(-k * (n - k))
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
    return TensorElement(out)


def lifted_can(t: TensorElement) -> CotensorElement:
    """Apply the coaction to the right leg and multiply the algebra legs."""
    out: dict = {}
    for (s, r), c in t.terms.items():
        w = r.winding
        for m, k in _mono_mul(s, r):
            key = (m, w)
            v = out.get(key)
            v = c * k if v is None else v + c * k
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return CotensorElement(out)


def multiply_legs(t: TensorElement) -> AlgElement:
    """The multiplication map applied to a two-leg tensor."""
    out: dict = {}
    for (s, r), c in t.terms.items():
        for m, k in _mono_mul(s, r):
            v = out.get(m)
            v = c * k if v is None else v + c * k
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return _raw(out)


def partition_identity_holds(n: int, sign: str = "+") -> bool:
    """Multiplying the legs of the closed form telescopes to 1."""
    return multiply_legs(strong_connection_closed(n, sign)) == AlgElement.one()


def _compose_witnesses(w_h: TensorElement, w_g: TensorElement) -> TensorElement:
    # product-of-preimages rule: witnesses for 1 (x) h and 1 (x) g give
    # sum_ij (g_j h_i) (x) (h~_i g~_j), a witness for 1 (x) hg
    out: dict = {}
    for (h, ht), c in w_h.terms.items():
        for (g, gt), d in w_g.terms.items():
            cd = c * d
            left = _mono_mul(g, h)
            right = _mono_mul(ht, gt)
            for lm, lc in left:
                clc = cd * lc
                for rm, rc in right:
                    key = (lm, rm)
                    v = out.get(key)
                    v = clc * rc if v is None else v + clc * rc
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
    return TensorElement(out)


def galois_witness(k: int) -> TensorElement:
    """A preimage of 1 (x) u^k under the lifted canonical map.

    Built from the degree +-1 seeds by iterating the product-of-preimages
    composition.  For this algebra the iterate coincides with the
    connection value, which is asserted, as is the preimage property.
    """
    if k == 0:
        out = TensorElement.unit()
    else:
        seed = _SEED_PLUS if k > 0 else _SEED_MINUS
        out = seed
        for _ in range(abs(k) - 1):
            out = _compose_witnesses(out, seed)
    if out != strong_connection(k):
        raise AssertionError(
            f"composed witness for power {k} differs from the connection")
    if lifted_can(out) != CotensorElement({(UNIT_MONO, k): ONE}):
        raise AssertionError(f"witness for power {k} failed verification")
    return out


def _coaction_triples_right(t: TensorElement) -> dict:
    return {(s, r, r.winding): c for (s, r), c in t.terms.items()}


def _coaction_triples_left(t: TensorElement) -> dict:
    # left-leg coaction pushed through the flip and the antipode
    # (the antipode of the circle algebra is its own inverse)
    return {(-s.winding, s, r): c for (s, r), c in t.terms.items()}


def check_connection_properties(k_max: int) -> dict:
    """Verify the connection identities exactly for all |k| <= k_max.

    (i)   lifted canonical map of ell(u^k) equals 1 (x) u^k;
    (ii)  right colinearity: the right legs all sit in winding k;
    (iii) left colinearity: the left legs all sit in winding -k;
    (iv)  multiplying the legs gives 1 (the partition identity).
    """
    if k_max < 1:
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
        rhs_r = {(s, r, k): c for (s, r), c in ell.terms.items()}
        ok2 = _coaction_triples_right(ell) == rhs_r
        if not ok2:
            failures.append({"k": k, "identity": "right_colinearity",
                             "difference": "winding mismatch in right leg"})
        rhs_l = {(k, s, r): c for (s, r), c in ell.terms.items()}
        ok3 = _coaction_triples_left(ell) == rhs_l
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
