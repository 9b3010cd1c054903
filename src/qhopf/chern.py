"""Line-module idempotents, the base trace, and their pairing.

For each nonzero winding the connection value on the corresponding
circle power factors the idempotent of the associated module: with
ell(u^n) = sum_k l_k (x) r_k, the matrix E with entries r_j l_k is
idempotent over the coinvariant subalgebra, because multiplying the
legs back together gives 1.

The trace on the coinvariant subalgebra is the difference of the traces
of the two inequivalent infinite-dimensional representations.  On the
winding-zero basis monomials it has the closed form

    mu != 0               -> 0        (shift operators have zero diagonal)
    mu = 0, m = n = 0     -> 0        (the two unit matrices cancel)
    mu = 0, m >= 1        -> 1/(1 - q^m)
    mu = 0, n >= 1        -> -1/(1 - p^n)

(geometric series of the diagonal eigenvalues q^k resp. p^k).  The
trace reads one coefficient per flag; a flag whose coefficient is a
Laurent value that its denominator 1 - q^m or 1 - p^n divides adds the
exact Laurent quotient, and only the other flags go over the product of
their denominators and one field-path reduction.  Every flag of the
pairing divides: the coefficient of (1 - aa*)^m in tr E_(-n) is
(-1)^m q^(-s(n, m)) [n, m]_q (q; q)_m with s(n, m) = mn - m(m+1)/2, and
likewise in p on the b-flags at +n, so the pairing needs no gcd.  Pairing
the trace with the matrix trace of an idempotent yields an integer;
for winding -1 it is exactly -1, independent of p and q, and the tests
pin the value mu for every 1 <= |mu| <= 20.  The pairing needs only
the diagonal entries r_j l_j, so it forms n+1 sphere products where
the whole idempotent takes (n+1)^2.  Both read the legs l_k (x) r_k
as the summands of ``galois.strong_connection``, the closed form that
``verify galois`` checks against the sandwich recursion.  A matrix is
a sparse element keyed (row, column, monomial) and tagged with its shape.
"""

from __future__ import annotations

from .scalars import (ONE, ParamScalar, ZERO, _quotient_one_minus, ppow,
                      qpow)
from .hopf import _power
from .s3core import AlgElement, _mono_mul
from .sparse import SparseElement, accumulate, extend

__all__ = [
    "CoinvariantMatrix",
    "idempotent",
    "trace_functional",
    "pairing",
]


class CoinvariantMatrix(SparseElement):
    """A rectangular matrix with entries in the coinvariant subalgebra.

    Keyed (row, column, monomial) and tagged with its shape (rows,
    columns), so the core's arithmetic rejects mixed shapes.
    """

    __slots__ = ("tag",)

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("entries must form a nonempty rectangle")
        bad = [e for row in entries for e in row if not e.is_coinvariant()]
        if bad:
            raise ValueError(f"matrix entry {bad[0]} is not coinvariant")
        object.__setattr__(self, "tag", (len(entries), len(entries[0])))
        super().__init__({(i, k, t): c for i, row in enumerate(entries)
                          for k, e in enumerate(row) for t, c in e._d.items()})

    @property
    def shape(self):
        return self.tag

    @property
    def entries(self) -> list:
        """A new list of rows of entries, absent ones as zero elements."""
        rows, cols = self.tag
        out = [[{} for _ in range(cols)] for _ in range(rows)]
        for (i, k, t), c in self._d.items():
            out[i][k][t] = c
        return [[AlgElement._raw(d) for d in row] for row in out]

    def __matmul__(self, other: "CoinvariantMatrix") -> "CoinvariantMatrix":
        if self.tag[1] != other.tag[0]:
            raise ValueError("shape mismatch in matrix product")
        # one accumulate for the whole product, keyed (row, column, monomial)
        cols = list(zip(*other.entries))
        return self._raw(accumulate({}, (
            ((c1, c2), [((i, k, t), c) for t, c in _mono_mul(t1, t2)])
            for i, row in enumerate(self.entries)
            for k, col in enumerate(cols) for x, y in zip(row, col)
            for t1, c1 in x._d.items()
            for t2, c2 in y._d.items())), (self.tag[0], other.tag[1]))

    def all_coinvariant(self):
        return all(t.winding == 0 for _, _, t in self._d)

    def trace(self) -> AlgElement:
        """Sum of the diagonal entries; stays coinvariant."""
        rows, cols = self.tag
        if rows != cols:
            raise ValueError("trace of a non-square matrix")
        return AlgElement._raw(extend(
            {key: c for key, c in self._d.items() if key[0] == key[1]},
            lambda key: ((key[2], ONE),)))

    def text(self) -> str:
        return "[" + ",\n ".join(
            "[" + ", ".join(e.text() for e in row) + "]"
            for row in self.entries) + "]"


def _legs(mu: int):
    """The right and the left legs of the connection value on u^(-mu).

    The right legs are monomials, the left legs (monomial, coefficient)
    pairs: the summands l_k (x) r_k of the closed form, ordered by the
    flag exponent k of the left leg.
    """
    from .galois import strong_connection   # not needed by the trace
    if _power(mu) == 0:
        raise ValueError("winding 0 is the free module; no idempotent here")
    ell = strong_connection(-mu)
    terms = sorted(ell.terms.items(), key=lambda t: t[0][0].m + t[0][0].n)
    return ([right for (_, right), _ in terms],
            [(left, c) for (left, _), c in terms])


def idempotent(mu: int) -> CoinvariantMatrix:
    """The projection matrix of the line module with winding label mu.

    For mu = -n the (n+1) x (n+1) matrix has entries

        E_jk = a^(n-j) b*^j  .  [n, n-k]_q q^k (1-aa*)^k a*^(n-k) b^k,

    i.e. the outer product of the right legs with the left legs of the
    connection value on u^n (for mu = -1 this is the familiar
    [[aa*, q a(1-aa*) b], [a* b*, q (1-aa*) b* b]]).  For mu = +n the
    roles of a and b, and of q and p, are exchanged.  The zero winding
    is excluded: the trivial free module needs no projection.
    """
    rights, lefts = _legs(mu)
    return CoinvariantMatrix._raw({
        (j, k, t): c if e is ONE else c * e
        for j, r in enumerate(rights) for k, (left, c) in enumerate(lefts)
        for t, e in _mono_mul(r, left)}, (len(rights), len(rights)))


def trace_functional(x: AlgElement) -> ParamScalar:
    """The trace on the coinvariant subalgebra, evaluated exactly.

    Linear extension of the per-monomial closed form quoted in the
    module docstring; rejects elements that are not coinvariant, since
    the trace lives on the base algebra only.
    """
    if not x.is_coinvariant():
        raise ValueError(f"trace of a non-coinvariant element: {x}")
    # a flag (0, m, n, 0) is one key of the coinvariant x; add the exact
    # Laurent quotients, then every other flag's c/(1 - q^m) or
    # -c/(1 - p^n) over the product of their denominators, reduced once;
    # the unit monomial contributes 0: the representation images cancel
    rest = []
    num = ZERO
    for (mu, m, n, _), c in x.terms.items():
        if mu or not (m or n):
            continue
        h = _quotient_one_minus(c, m or n, "q" if m else "p")
        if h is None:
            rest.append((m, n, c))
        else:
            num = num + h if m else num - h
    den = ONE
    for m, n, c in rest:
        d = ONE - qpow(m) if m else ONE - ppow(n)
        num, den = num * d + (c if m else -c) * den, den * d
    return num / den if rest else num


def pairing(mu: int) -> ParamScalar:
    """Pair the trace with the idempotent of winding label mu.

    Exact in p and q; the result is reported as computed (for mu = -1 it
    must be the constant -1).  Only the diagonal of the idempotent
    enters, so the matrix trace is summed from the n+1 products
    E_jj = r_j l_j instead of building all (n+1)^2 entries.
    """
    rights, lefts = _legs(mu)
    return trace_functional(AlgElement._raw(accumulate({}, (
        (c, _mono_mul(r, left)) for r, (left, c) in zip(rights, lefts)))))
