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

(geometric series of the diagonal eigenvalues q^k resp. p^k).  Pairing
the trace with the matrix trace of an idempotent yields an integer;
for winding -1 it is exactly -1, independent of p and q.
"""

from __future__ import annotations

from .scalars import ONE, ParamScalar, ZERO, ppow, qbinomial, qpow
from .s3core import AlgElement, BasisMonomial, mul

__all__ = [
    "CoinvariantMatrix",
    "idempotent",
    "matrix_trace",
    "trace_functional",
    "pairing",
]


class CoinvariantMatrix:
    """A rectangular matrix with entries in the coinvariant subalgebra."""

    __slots__ = ("entries",)

    def __init__(self, entries, check: bool = True):
        entries = [list(row) for row in entries]
        if not entries or any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("entries must form a nonempty rectangle")
        if check:
            for row in entries:
                for e in row:
                    if not e.is_coinvariant():
                        raise ValueError(
                            f"matrix entry {e} is not coinvariant")
        self.entries = entries

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def is_square(self):
        rows, cols = self.shape
        return rows == cols

    def __matmul__(self, other: "CoinvariantMatrix") -> "CoinvariantMatrix":
        rows, inner = self.shape
        inner2, cols = other.shape
        if inner != inner2:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = AlgElement.zero()
                for k in range(inner):
                    acc = acc + mul(self.entries[i][k], other.entries[k][j])
                row.append(acc)
            out.append(row)
        return CoinvariantMatrix(out, check=False)

    def __sub__(self, other: "CoinvariantMatrix") -> "CoinvariantMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix difference")
        return CoinvariantMatrix(
            [[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)],
            check=False)

    def __eq__(self, other):
        if not isinstance(other, CoinvariantMatrix):
            return NotImplemented
        return self.entries == other.entries

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def all_coinvariant(self):
        return all(e.is_coinvariant() for row in self.entries for e in row)

    def trace(self) -> AlgElement:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        acc = AlgElement.zero()
        for i in range(len(self.entries)):
            acc = acc + self.entries[i][i]
        return acc

    def json_entries(self):
        return [[e.json_terms() for e in row] for row in self.entries]

    def text(self) -> str:
        return "[" + ",\n ".join(
            "[" + ", ".join(e.text() for e in row) + "]"
            for row in self.entries) + "]"

    def __repr__(self):
        return f"CoinvariantMatrix({self.text()})"


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
    if mu == 0:
        raise ValueError("winding 0 is the free module; no idempotent here")
    n = abs(mu)
    if mu < 0:
        rights = [AlgElement.from_monomial(BasisMonomial(n - j, 0, 0, -j))
                  for j in range(n + 1)]
        lefts = [
            AlgElement.from_monomial(
                BasisMonomial(-(n - k), k, 0, k),
                qbinomial(n, n - k) * qpow(k) * qpow(-k * (n - k)))
            for k in range(n + 1)
        ]
    else:
        rights = [AlgElement.from_monomial(BasisMonomial(-j, 0, 0, n - j))
                  for j in range(n + 1)]
        lefts = [
            AlgElement.from_monomial(
                BasisMonomial(k, 0, k, -(n - k)),
                qbinomial(n, n - k, param="p") * ppow(k))
            for k in range(n + 1)
        ]
    entries = [[mul(r, l) for l in lefts] for r in rights]
    return CoinvariantMatrix(entries)


def matrix_trace(e: CoinvariantMatrix) -> AlgElement:
    """Sum of the diagonal entries; stays coinvariant."""
    return e.trace()


def trace_functional(x: AlgElement) -> ParamScalar:
    """The trace on the coinvariant subalgebra, evaluated exactly.

    Linear extension of the per-monomial closed form quoted in the
    module docstring; rejects elements that are not coinvariant, since
    the trace lives on the base algebra only.
    """
    if not x.is_coinvariant():
        raise ValueError(f"trace of a non-coinvariant element: {x}")
    # sum the coefficients per flag exponent, then divide once for each;
    # the unit monomial contributes 0: the representation images cancel
    by_m: dict = {}
    by_n: dict = {}
    for t, c in x.terms.items():
        if t.mu == 0 and (t.m or t.n):
            flags, e = (by_m, t.m) if t.m else (by_n, t.n)
            flags[e] = flags.get(e, ZERO) + c
    total = ZERO
    for m, c in by_m.items():
        total = total + c / (ONE - qpow(m))
    for n, c in by_n.items():
        total = total - c / (ONE - ppow(n))
    return total


def pairing(mu: int) -> ParamScalar:
    """Pair the trace with the idempotent of winding label mu.

    Exact in p and q; the result is reported as computed (for mu = -1 it
    must be the constant -1).
    """
    return trace_functional(matrix_trace(idempotent(mu)))
