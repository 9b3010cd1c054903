"""Idempotents, the exact trace, and the pairing."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qhopf.scalars import ONE, P, Q, ppow, qbinomial, qpow, scalar
from qhopf.chern import (CoinvariantMatrix, idempotent, pairing,
                         trace_functional)
from qhopf.galois import strong_connection
from qhopf.s3core import AlgElement, BasisMonomial, mul
from qhopf import numrep
from qhopf.verify import random_coinvariant

A = AlgElement.generator("a")
AS = AlgElement.generator("a*")
B = AlgElement.generator("b")
BS = AlgElement.generator("b*")
ONE_EL = AlgElement.one()
BETA = ONE_EL - mul(A, AS)
GAMMA = ONE_EL - mul(B, BS)


def test_idempotent_winding_minus_one_matches_published_matrix():
    e = idempotent(-1)
    assert e.shape == (2, 2)
    want = [
        [mul(A, AS), Q * mul(mul(A, BETA), B)],
        [mul(AS, BS), Q * mul(mul(BETA, BS), B)],
    ]
    assert e.entries == want


def test_idempotent_squared():
    for mu in (-1, 1, -2, 2, -3, 3):
        e = idempotent(mu)
        assert (e @ e - e).is_zero(), mu
        assert e.all_coinvariant()
        assert e.shape == (abs(mu) + 1, abs(mu) + 1)
    with pytest.raises(ValueError):
        idempotent(0)


@pytest.mark.parametrize("mu", [-4, 4, -5, 5, -6, 6])
def test_idempotent_squared_where_the_product_is_packed(mu, monkeypatch):
    # at these sizes the matrix product sums its coefficient products as
    # packed big integers in one call
    from qhopf import sparse
    sums, engine = [], sparse._packed_sums
    monkeypatch.setattr(sparse, "_packed_sums",
                        lambda *args: sums.append(engine(*args)) or sums[-1])
    e = idempotent(mu)
    assert (e @ e - e).is_zero()
    assert any(s is not None for s in sums)


def test_packing_loads_no_module():
    # the packed kernel lives in scalars, so the first sum worth packing
    # imports nothing: in a fresh interpreter, after the idempotent (which
    # loads galois for its legs), the packed product adds no module
    code = ("import json, sys\n"
            "from qhopf import chern, sparse\n"
            "e = chern.idempotent(-4)\n"
            "before = set(sys.modules)\n"
            "sums, engine = [], sparse._packed_sums\n"
            "def spy(*args):\n"
            "    sums.append(engine(*args))\n"
            "    return sums[-1]\n"
            "sparse._packed_sums = spy\n"
            "e @ e\n"
            "print(json.dumps([any(s is not None for s in sums),\n"
            "                  sorted(set(sys.modules) - before)]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    packed, added = json.loads(proc.stdout.strip().splitlines()[-1])
    assert packed
    assert added == []


@pytest.mark.parametrize("call", [idempotent, pairing])
def test_a_non_integer_winding_is_a_value_error(call):
    with pytest.raises(ValueError, match="integer"):
        call(1.5 if call is idempotent else 2.0)


def test_idempotent_entries_are_products_of_the_recursion_legs():
    # E_jk = r_j l_k with the legs of the sandwich recursion's ell(u^n),
    # ordered by the flag exponent of the left leg
    for n in range(1, 6):
        for mu in (-n, n):
            terms = sorted(strong_connection(-mu).terms.items(),
                           key=lambda t: t[0][0].m + t[0][0].n)
            rights = [AlgElement({r: ONE}) for (_, r), _ in terms]
            lefts = [AlgElement({s: c}) for (s, _), c in terms]
            entries = idempotent(mu).entries
            for j, r in enumerate(rights):
                for k, left in enumerate(lefts):
                    assert entries[j][k] == mul(r, left), (mu, j, k)


def test_idempotent_winding_minus_two_corner_entries():
    # corners of the 3x3 matrix: products of the outer legs of the
    # degree-2 connection value
    e = idempotent(-2)
    assert e.entries[0][0] == mul(mul(A, A), mul(AS, AS))
    corner = Q * Q * mul(mul(BS, BS), mul(mul(BETA, BETA), mul(B, B)))
    assert e.entries[2][2] == corner


def test_matrix_trace():
    e = idempotent(-1)
    want = mul(A, AS) + Q * mul(mul(BETA, BS), B)
    assert e.trace() == want
    # published spelling of the same trace
    assert want == mul(A, AS) + Q * mul(BETA, mul(BS, B))
    ident = CoinvariantMatrix([[ONE_EL, AlgElement.zero()],
                               [AlgElement.zero(), ONE_EL]])
    assert ident.trace() == scalar(2) * ONE_EL
    with pytest.raises(ValueError):
        CoinvariantMatrix([[ONE_EL, ONE_EL]]).trace()


def test_trace_anchor_values():
    assert trace_functional(ONE_EL).is_zero()
    assert trace_functional(BETA) == ONE / (ONE - Q)
    assert trace_functional(
        AlgElement.from_monomial(BasisMonomial(0, 0, 2, 0))) == \
        -(ONE / (ONE - P * P))
    # shift-type winding-zero monomials vanish
    assert trace_functional(
        AlgElement.from_monomial(BasisMonomial(2, 0, 0, 2))).is_zero()


def test_trace_rejects_noncoinvariant():
    with pytest.raises(ValueError):
        trace_functional(A)


def test_trace_derivation_via_the_embedding():
    # the base element f0 - f1 f1* maps to 1 - aa* exactly
    from qhopf.s3core import iota_image
    f0, f1, f1s = (iota_image(k) for k in ("f0", "f1", "f1*"))
    assert f0 - mul(f1, f1s) == BETA
    assert trace_functional(f0 - mul(f1, f1s)) == ONE / (ONE - Q)


def test_trace_matches_numeric_oracle():
    rng = random.Random(23)
    p_val, q_val = 0.5, 0.3
    N = 300
    global_tail = p_val ** N / (1 - p_val) + q_val ** N / (1 - q_val)
    for _ in range(25):
        x = random_coinvariant(rng)
        sym = trace_functional(x).evaluate(p_val, q_val)
        got = numrep.numeric_trace(x, N, p_val, q_val)
        assert abs(got.value - sym) <= global_tail + 1e-9


def test_trace_is_tracial():
    rng = random.Random(29)
    for _ in range(120):
        x, y = random_coinvariant(rng), random_coinvariant(rng)
        assert trace_functional(mul(x, y)) == trace_functional(mul(y, x))


def reference_trace(x):
    # the closed form summed term by term, one division per monomial
    total = scalar(0)
    for t, c in x.terms.items():
        if t.mu == 0 and t.m:
            total = total + c / (ONE - Q ** t.m)
        elif t.mu == 0 and t.n:
            total = total - c / (ONE - P ** t.n)
    return total


def flag(m, n):
    return BasisMonomial(0, m, n, 0)


def random_laurent(rng):
    # a few int terms p^i q^j, offsets down to -2
    return sum((rng.choice((-3, -2, -1, 1, 2, 3)) * ppow(rng.randint(-2, 2))
                * qpow(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))),
               scalar(0))


def divisible_flags(rng):
    # flag coefficients that their denominators divide exactly: random
    # Laurent values times 1 - q^m on (1 - aa*)^m, times 1 - p^n on
    # (1 - bb*)^n
    terms = {}
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(1, 4)
        if rng.random() < 0.5:
            terms[flag(k, 0)] = random_laurent(rng) * (ONE - qpow(k))
        else:
            terms[flag(0, k)] = random_laurent(rng) * (ONE - ppow(k))
    return AlgElement(terms)


@pytest.mark.parametrize("seed", range(4))
def test_trace_matches_the_per_term_sum(seed):
    # seeded coinvariant elements with both flag kinds, repeated flag
    # exponents and field coefficients, against the per-term reference;
    # then flag coefficients that their denominators divide, alone, added
    # to or subtracted from those on the same flags and on others, and
    # cancelled
    rng = random.Random(700 + seed)
    extra = random.Random(900 + seed)
    field = (ONE / (ONE - P * Q), (ONE + Q) / (ONE - P),
             scalar(Fraction(2, 3)))
    for _ in range(8):
        x = random_coinvariant(rng, max_flag=3, max_terms=5)
        x = x + random_coinvariant(rng, max_flag=3, max_terms=5) * \
            rng.choice(field)
        x = x + AlgElement({BasisMonomial(0, rng.randint(1, 3), 0, 0):
                            rng.choice(field),
                            BasisMonomial(0, 0, rng.randint(1, 3), 0):
                            rng.choice(field)})
        assert trace_functional(x) == reference_trace(x), x.text()
        d = divisible_flags(extra)
        for y in (d, d + x, d - x, d - d):
            assert trace_functional(y) == reference_trace(y), y.text()
    # 1 - q^2 does not divide (1 - q)(1 + q^2), though it vanishes at q = 1
    for c in ((ONE - Q) * (ONE + Q * Q), (ONE - Q) * (ONE + Q) * Q ** -2):
        x = AlgElement({flag(2, 0): c, flag(0, 1): ONE - P})
        assert trace_functional(x) == reference_trace(x), x.text()
    # divisible flags whose quotients cancel
    x = AlgElement({flag(1, 0): ONE - Q, flag(0, 1): ONE - P})
    assert trace_functional(x).is_zero()


def test_the_pairing_takes_no_field_path_reduction(monkeypatch):
    # every flag coefficient of the diagonal sum is divisible by its
    # denominator, so the trace adds exact Laurent quotients
    from qhopf import scalars
    calls = []
    engine = scalars._reduce
    monkeypatch.setattr(scalars, "_reduce",
                        lambda *args: calls.append(args) or engine(*args))
    for n in range(1, 13):
        for mu in (-n, n):
            assert pairing(mu) == mu
    assert calls == []


def test_flag_coefficients_of_the_diagonal_sum():
    # sum_j r_j l_j = sum_m (-1)^m s^(-s(n, m)) [n, m]_s (s; s)_m times the
    # m-th power of the flag, s(n, m) = mn - m(m+1)/2: a-flags and s = q
    # at winding -n, b-flags and s = p at +n (ROADMAP item 3(a))
    for n in range(1, 13):
        for mu in (-n, n):
            s, param = (qpow, "q") if mu < 0 else (ppow, "p")
            diag = AlgElement.zero()
            for (left, right), c in strong_connection(-mu).terms.items():
                diag = diag + mul(AlgElement({right: ONE}),
                                  AlgElement({left: c}))
            want, poch = {}, ONE
            for m in range(n + 1):
                poch = poch * (ONE - s(m)) if m else ONE
                want[flag(m, 0) if mu < 0 else flag(0, m)] = \
                    (-1) ** m * s(m * (m + 1) // 2 - m * n) * \
                    qbinomial(n, m, param) * poch
            assert diag == AlgElement(want), mu


def test_pairing_winding_minus_one_is_exactly_minus_one():
    val = pairing(-1)
    assert val == -ONE
    assert val.is_integer()
    assert val.as_fraction() == Fraction(-1)


# the winding ladder: pairing(mu) == mu is pinned for 1 <= |mu| <= LADDER
LADDER = 20


def test_pairing_values_are_integers():
    values = {}
    for mu in range(-LADDER, LADDER + 1):
        if mu == 0:
            continue
        v = pairing(mu)
        assert v.is_integer(), (mu, str(v))
        values[mu] = v.as_fraction()
    # computed, not asserted from a formula: report-style sanity checks
    assert values[-1] == -1
    # mirrored windings pair to opposite integers in this computation
    for mu in range(1, 6):
        assert values[mu] == -values[-mu]
    for mu, v in values.items():
        assert v == mu, (mu, v)


def test_pairing_is_the_trace_of_the_idempotent():
    # the diagonal-only pairing against the whole matrix it skips
    for n in range(1, 9):
        for mu in (-n, n):
            assert pairing(mu) == trace_functional(idempotent(mu).trace()), mu


def test_pairing_cross_checked_numerically():
    p_val, q_val = 0.5, 1.0 / 3.0
    N = 300
    for mu in (-3, -2, -1, 1, 2, 3):
        sym = pairing(mu).evaluate(p_val, q_val)
        tr = idempotent(mu).trace()
        got = numrep.numeric_trace(tr, N, p_val, q_val)
        assert abs(got.value - sym) <= got.tail_bound + 1e-9


def test_pairing_error_propagation():
    with pytest.raises(ValueError):
        pairing(0)


def test_coinvariant_matrix_validation():
    with pytest.raises(ValueError):
        CoinvariantMatrix([[A]])
    with pytest.raises(ValueError):
        CoinvariantMatrix([])
    m = CoinvariantMatrix([[ONE_EL, BETA]])
    assert m.shape == (1, 2)
    e1, e2 = idempotent(-1), idempotent(2)
    for op in (lambda: e1 + e2, lambda: e1 - e2, lambda: e1 @ e2,
               lambda: m @ m):
        with pytest.raises(ValueError):
            op()
    for op in (lambda: e1 + e2, lambda: e1 - e2):
        with pytest.raises(ValueError,
                           match=r"^mixed tags \(2, 2\) and \(3, 3\)$"):
            op()
    zero1 = CoinvariantMatrix([[AlgElement.zero()]])
    zero2 = CoinvariantMatrix([[AlgElement.zero()] * 2] * 2)
    assert zero1.is_zero() and zero2.is_zero() and zero1 != zero2


def test_the_matrix_is_a_value():
    # entries is a fresh list on every read, so writing into it or
    # emptying it leaves the matrix alone; equal matrices hash equal
    e = idempotent(-1)
    want = e.entries
    rows = e.entries
    rows[0][0] = rows[1][1]
    rows.clear()
    assert e.entries == want
    with pytest.raises(AttributeError):
        e.entries = []
    assert e.entries == want and e == idempotent(-1)
    assert hash(e) == hash(idempotent(-1))
    assert len({e, idempotent(-1), idempotent(1)}) == 2
