"""Exact coefficient field and Gauss binomials."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qhopf.exprs import evaluate_scalar
from qhopf.scalars import (ONE, P, Q, ZERO, ParamScalar, ppow, qbinomial,
                           qpow, scalar)


# ---------------------------------------------------------------------------
# independent oracle: coefficient of x^k y^(n-k) in (x+y)^n with yx = q xy,
# by enumerating all words and counting (y, x) inversions
# ---------------------------------------------------------------------------

def qbin_by_enumeration(n, k):
    counts = {}
    for xpos in combinations(range(n), k):
        xset = set(xpos)
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if i not in xset and j in xset)
        counts[inv] = counts.get(inv, 0) + 1
    return counts


def as_qpoly(counts):
    out = ZERO
    for e, c in counts.items():
        out = out + scalar(c) * qpow(e)
    return out


def qbinomial_quotient(n, k, param="q"):
    # the quotient-of-products formula in field arithmetic: the
    # intermediate values are genuine rational functions
    sym = Q if param == "q" else P

    def rising(j):
        out = ONE
        power = ONE
        for i in range(1, j + 1):
            power = power * sym
            out = out * (power - ONE)
        return out

    return rising(n) / (rising(k) * rising(n - k))


def test_self_division_is_one():
    assert (ONE - Q) / (ONE - Q) == ONE


def test_difference_of_squares_cancels():
    assert (ONE - Q * Q) / (ONE - Q) == ONE + Q


def test_parameters_commute():
    assert (P * Q - Q * P).is_zero()


def test_qbinomial_edges():
    for n in range(8):
        assert qbinomial(n, 0) == ONE
        assert qbinomial(n, n) == ONE
    with pytest.raises(ValueError):
        qbinomial(3, 4)
    with pytest.raises(ValueError):
        qbinomial(3, -1)


def test_qbinomial_against_word_enumeration():
    # the named instances first
    assert qbinomial(3, 1) == as_qpoly(qbin_by_enumeration(3, 1))
    assert qbinomial(3, 1) == ONE + Q + Q * Q
    assert qbinomial(4, 2) == as_qpoly(qbin_by_enumeration(4, 2))
    # and the whole table the recursion is trusted for
    for n in range(11):
        for k in range(n + 1):
            assert qbinomial(n, k) == as_qpoly(qbin_by_enumeration(n, k))


def test_qbinomial_symmetry():
    for n in range(11):
        for k in range(n + 1):
            assert qbinomial(n, k) == qbinomial(n, n - k)


def test_qbinomial_pascal_recursion():
    # rows are built by the product formula; the recursion checks them,
    # for both parameters
    for n in range(1, 41):
        for k in range(1, n):
            assert qbinomial(n, k) == \
                qbinomial(n - 1, k - 1) + qpow(k) * qbinomial(n - 1, k)
            assert qbinomial(n, k, "p") == qbinomial(n - 1, k - 1, "p") \
                + ppow(k) * qbinomial(n - 1, k, "p")


def test_qbinomial_quotient_formula_agrees():
    for n in range(9):
        for k in range(n + 1):
            got = qbinomial_quotient(n, k)
            assert got == qbinomial(n, k)
            # the quotient collapses to a polynomial: denominator one
            assert got.den == {(0, 0): Fraction(1)}


def test_qbinomial_p_parameter():
    assert qbinomial(3, 1, param="p") == ONE + P + P * P


def test_eval_examples():
    assert (ONE / (ONE - Q)).evaluate(0.5, 0.5) == pytest.approx(2.0)
    assert qbinomial(3, 1).evaluate(0.0, 1.0) == pytest.approx(3.0)
    assert (P * Q).evaluate(0.5, 0.25) == pytest.approx(0.125)


def test_eval_pole_raises():
    with pytest.raises(ZeroDivisionError):
        (ONE / (ONE - Q)).evaluate(0.5, 1.0)


@pytest.mark.parametrize("k", [650, 600])
def test_float_overflow_is_not_a_pole(k):
    # 0.3^650 underflows to 0.0 and 0.3^600 to a subnormal whose
    # reciprocal is inf; neither value is a pole
    with pytest.raises(ValueError, match="not representable"):
        qpow(-k).evaluate(0.5, 0.3)
    # exact arguments evaluate as before
    assert qpow(-k).evaluate(Fraction(1, 2), Fraction(3, 10)) \
        == Fraction(10, 3) ** k


def test_true_poles_stay_poles_at_float_extremes():
    # p^700 - q^700 overflows at 10.0; it is exactly 0 only at p = q
    x = ONE / (ppow(700) - qpow(700))
    with pytest.raises(ZeroDivisionError, match="pole"):
        x.evaluate(10.0, 10.0)
    with pytest.raises(ValueError, match="not representable"):
        x.evaluate(10.0, 9.0)
    with pytest.raises(ZeroDivisionError, match="pole"):
        (ONE / (P - Q)).evaluate(1e200, 1e200)
    with pytest.raises(ZeroDivisionError, match="pole"):
        qpow(-1).evaluate(0.5, 0.0)
    assert (ONE / (P - Q)).evaluate(0.5, 0.3) == pytest.approx(5.0)


def test_division_by_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ParamScalar({(0, 0): 1}, {})


# ---------------------------------------------------------------------------
# field laws on random scalars
# ---------------------------------------------------------------------------

def one_form(x):
    # int coefficients throughout, and either no denominator (Laurent) or
    # one that is not a monomial with coefficient 1
    n, d = x._n, x._d
    if d is None:
        d = {}
    elif d.__class__ is not dict or list(d.values()) == [1]:
        return False
    return all(c.__class__ is int for c in (*n.values(), *d.values()))


def laurent_normal(x):
    # the offset form: a Laurent dict is empty at offset (0, 0) or has a
    # key with i = 0 and a key with j = 0; a field value has offset (0, 0)
    n, o = x._n, x._o
    if x._d is not None or not n:
        return o == (0, 0)
    return min(i for i, _ in n) == 0 and min(j for _, j in n) == 0


def scalars_strategy():
    coeff = st.integers(-4, 4)
    def build(c0, cp, cq, cpq):
        return (scalar(c0) + P * cp + Q * cq + P * Q * cpq)
    polys = st.builds(build, coeff, coeff, coeff, coeff)
    def ratio(n, d):
        return n / d if not d.is_zero() else n
    return st.builds(ratio, polys, polys)


@settings(max_examples=60, deadline=None)
@given(scalars_strategy(), scalars_strategy(), scalars_strategy())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    if not x.is_zero():
        assert x * (ONE / x) == ONE
    assert all(map(one_form, (x, y, z, x + y, y + z, (x + y) + z, x * y,
                              y * z, (x * y) * z, x * (y + z), x - x)))
    assert all(map(laurent_normal, (
        x, y, z, x + y, y + z, (x + y) + z, x * y, y * z, (x * y) * z,
        x * (y + z), x - x, x + ZERO, x * ONE)))
    if not x.is_zero():
        assert laurent_normal(ONE / x) and laurent_normal(x * (ONE / x))


@settings(max_examples=60, deadline=None)
@given(scalars_strategy(), scalars_strategy())
def test_eval_is_a_homomorphism(x, y):
    # exact rational point: no float cancellation near a small denominator
    pv, qv = Fraction(37, 100), Fraction(61, 100)
    try:
        xv, yv = x.evaluate(pv, qv), y.evaluate(pv, qv)
    except ZeroDivisionError:
        return
    assert (x * y).evaluate(pv, qv) == xv * yv
    assert (x + y).evaluate(pv, qv) == xv + yv


@settings(max_examples=60, deadline=None)
@given(scalars_strategy())
def test_canonical_form_invariants(x):
    # denominator present, never zero, lowest-order coefficient one
    assert x.den
    if x.is_zero():
        assert x.num == {}
        assert x.den == {(0, 0): Fraction(1)}
    else:
        key = min(x.den, key=lambda m: (m[0] + m[1], m[1]))
        assert x.den[key] == 1
    # hashable and equal to a reconstruction from its own parts
    assert ParamScalar(dict(x.num), dict(x.den)) == x
    assert hash(ParamScalar(dict(x.num), dict(x.den))) == hash(x)


def test_exact_fraction_evaluation():
    x = (ONE - Q * Q) / (ONE - P)
    v = x.evaluate(Fraction(1, 2), Fraction(1, 3))
    assert isinstance(v, Fraction)
    assert v == Fraction(16, 9)


def test_canonical_strings():
    assert str((ONE - Q * Q) / (ONE - P)) == "(1 - q^2)/(1 - p)"
    assert str(ONE / (ONE - Q)) == "1/(1 - q)"
    assert str(-ONE) == "-1"
    assert str(qbinomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(scalar(Fraction(3, 2)) * P) == "3/2*p"


def test_scalar_shares_the_unit_and_zero():
    # ParamScalar.__mul__ skips a product with the ONE object
    assert scalar(1) is ONE and scalar(Fraction(2, 2)) is ONE
    assert scalar(0) is ZERO and scalar(Fraction(0, 3)) is ZERO
    assert evaluate_scalar("1") is ONE
    for v in (1, 0, -1, 2, Fraction(1, 2)):
        assert scalar(v) == ParamScalar(v)
        assert str(scalar(v)) == str(ParamScalar(v))
    assert [str(scalar(v)) for v in (1, 0)] == ["1", "0"]
    assert str(scalar(1) * P) == "p" and str(scalar(0) + Q) == "q"


def test_signed_powers():
    assert qpow(-2) * qpow(2) == ONE
    assert ppow(3) == P * P * P
    assert qpow(-1) == ONE / Q


def test_hash_agrees_with_equality():
    assert len({ONE, 1, Fraction(1)}) == 1
    assert len({ZERO, 0}) == 1
    assert hash(scalar(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(scalar(-7)) == hash(-7)
    by_den = ParamScalar({(0, 0): 1}, {(0, 1): 1})
    assert by_den == qpow(-1)
    assert hash(by_den) == hash(qpow(-1))
    cancelled = (ONE - Q * Q) / ((ONE - Q) * Q)
    assert cancelled == ONE / Q + ONE
    assert hash(cancelled) == hash(ONE / Q + ONE)
    # one value by every route: one form, one hash, one string
    routes = [ParamScalar({(0, -1): Fraction(1, 2)}), ONE / (2 * Q),
              qpow(-1) / 2, evaluate_scalar("1/(2*q)")]
    for x in routes:
        assert x == routes[0] and hash(x) == hash(routes[0])
        assert str(x) == "1/2/q" and one_form(x)


# ---------------------------------------------------------------------------
# differential check on seeded random Laurent scalars
# ---------------------------------------------------------------------------

def random_laurent(rng):
    x = ZERO
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.25:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        else:
            c = rng.randint(-5, 5)
        x = x + scalar(c) * ppow(rng.randint(-3, 3)) * qpow(rng.randint(-3, 3))
    return x


POINTS = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(-2, 5), Fraction(7, 3)),
          (Fraction(37, 100), Fraction(61, 100))]


@pytest.mark.parametrize("seed", range(8))
def test_laurent_scalars_differential(seed):
    rng = random.Random(seed)
    pole = ONE / (ONE - P * Q)
    for _ in range(25):
        x, y, z = (random_laurent(rng) for _ in range(3))
        assert all(map(one_form, (x, y, z, x * y, (x * y) * z, x + y,
                                  x - y, -y, x * (y + z), x * pole,
                                  x * pole * (ONE - P * Q), x + pole)))
        assert all(map(laurent_normal, (
            x, y, z, x * y, (x * y) * z, y * z, x + y, x - y, -y, y + z,
            x * (y + z), x * pole, x * pole * (ONE - P * Q), x + pole,
            (x + pole) - pole, x - x, x * ONE, x + ZERO, x * ZERO,
            ParamScalar(x.num), ParamScalar(x.den))))
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert hash(x * y) == hash(y * x)
        assert x + y == y + x
        assert x - y == x + (-y)
        assert x - x == ZERO
        assert x * ONE == x and x + ZERO == x
        assert x * ZERO == ZERO
        # mixed Laurent and genuine field values
        assert x * pole * (ONE - P * Q) == x
        assert (x + pole) - pole == x
        for pv, qv in POINTS:
            xv, yv = x.evaluate(pv, qv), y.evaluate(pv, qv)
            assert (x * y).evaluate(pv, qv) == xv * yv
            assert (x + y).evaluate(pv, qv) == xv + yv
            assert (x - y).evaluate(pv, qv) == xv - yv
        num, den = ParamScalar(x.num), ParamScalar(x.den)
        assert evaluate_scalar(str(num)) == num
        assert evaluate_scalar(str(den)) == den
        assert evaluate_scalar(str(x)) == x
        assert one_form(num) and one_form(den)


# ---------------------------------------------------------------------------
# differential guards for the integer kernels
# ---------------------------------------------------------------------------

def reference_product(f, g):
    # the schoolbook double loop, kept here as the kernels' reference
    out = {}
    for (fi, fj), fc in f.items():
        for (gi, gj), gc in g.items():
            m = (fi + gi, fj + gj)
            out[m] = out.get(m, 0) + fc * gc
    return {m: c for m, c in out.items() if c}


def random_int_poly(rng, terms, bivariate, huge):
    # exponents in a window about twice as large as the support
    span = int((terms if bivariate else terms * terms) ** 0.5)
    lo = rng.randint(-6, 6)
    out = {}
    while len(out) < terms:
        c = rng.randint(-9, 9) or 1
        if huge and rng.random() < 0.5:
            c *= rng.randint(2**64, 2**70)
        i = rng.randint(lo, lo + span) if bivariate else 0
        out[(i, rng.randint(lo - span, lo + span))] = c
    return out


def packed_product(f, g):
    # f g as a packed sum with one product, or None where the kernel
    # declines; the result in exponent-dict form
    from qhopf.scalars import _laurent, _packed_sums
    out = _packed_sums([((_laurent(f), _laurent(g)), ((0, ONE),))])
    if out is None:
        return None
    (i, j), n = out[0]._o, out[0]._n
    return {(a + i, b + j): c for (a, b), c in n.items()}


@pytest.mark.parametrize("seed", range(6))
def test_pmul_and_kmul_match_the_reference_loop(seed, monkeypatch):
    from qhopf import scalars
    from qhopf.scalars import PACK_MIN_PAIRS, _pmul
    rng = random.Random(seed)
    sizes = [1, 2, 3, 5, 8, 12, 20, 40]
    crossed = set()
    for _ in range(40):
        nf, ng = rng.choice(sizes), rng.choice(sizes)
        bivariate = rng.random() < 0.5
        huge = rng.random() < 0.3
        f = random_int_poly(rng, nf, bivariate, huge)
        g = random_int_poly(rng, ng, bivariate, huge)
        want = reference_product(f, g)
        assert _pmul(f, g) == want
        assert _pmul(g, f) == want
        with monkeypatch.context() as m:
            # a threshold far below zero packs every product
            m.setattr(scalars, "PACK_MIN_PAIRS", -10**9)
            assert packed_product(f, g) == want
        crossed.add(nf * ng >= PACK_MIN_PAIRS)
    assert crossed == {False, True}
    # a product far sparser than its term pairs stays on the dict loop
    f = {(0, 0): 3, (0, 1): -1, (500, 0): 2**65, (0, 900): 7}
    g = {(0, 0): -5, (1, 1): 2, (-400, 3): 1, (3, -700): 4}
    monkeypatch.setattr(scalars, "PACK_MIN_PAIRS", 0)
    assert packed_product(f, g) is None
    assert _pmul(f, g) == reference_product(f, g)


def reference_sums(blocks):
    # the sums of f c per key over plain exponent dicts, zero sums dropped
    out = {}
    for f, pairs in blocks:
        fs = f if isinstance(f, tuple) else (f,)
        for t, c in pairs:
            term = {(0, 0): 1}
            for x in fs + (c,):
                term = reference_product(term, true_dict(x))
            out[t] = ref_add(out.get(t, {}), term)
    return {t: s for t, s in out.items() if s}


def random_kernel_value(rng, huge):
    # a Laurent value at a negative or positive corner, often bivariate,
    # with small, huge and negative coefficients
    i0, j0 = rng.randint(-6, 4), rng.randint(-6, 4)
    wide = rng.random() < 0.5
    f = {}
    for _ in range(rng.choice([1, 1, 2, 3, 6, 10])):
        c = rng.randint(-9, 9) or 1
        if huge and rng.random() < 0.5:
            c *= rng.randint(2**60, 2**80)
        f[(i0 + (rng.randint(0, 3) if wide else 0),
           j0 + rng.randint(0, 8))] = c
    return ParamScalar({m: c for m, c in f.items() if c}) * ppow(0)


@pytest.mark.parametrize("seed", range(6))
def test_packed_sums_match_the_reference_loop(seed, monkeypatch):
    from qhopf import scalars
    from qhopf.scalars import _packed_sums
    from qhopf.sparse import accumulate
    rng = random.Random(900 + seed)
    for _ in range(25):
        huge = rng.random() < 0.4
        blocks = []
        for _ in range(rng.randint(1, 8)):
            f = random_kernel_value(rng, huge)
            if rng.random() < 0.5:
                f = (f, random_kernel_value(rng, huge))
            pairs = [(rng.randint(0, 4), random_kernel_value(rng, huge))
                     for _ in range(rng.randint(0, 5))]
            blocks.append((f, pairs))
        if rng.random() < 0.3:
            # the same products negated: every key must cancel and drop
            blocks += [(f, [(t, -c) for t, c in pairs]) for f, pairs in blocks]
        want = reference_sums(blocks)
        got = accumulate({}, blocks)
        assert {t: true_dict(s) for t, s in got.items()} == want
        with monkeypatch.context() as m:
            m.setattr(scalars, "PACK_MIN_PAIRS", -10**9)
            got = _packed_sums(blocks)
        assert {t: true_dict(s) for t, s in got.items()} == want
        for s in got.values():
            assert laurent_normal(s)


def test_packed_sums_at_the_slot_bound_and_declines(monkeypatch):
    from qhopf import scalars
    from qhopf.scalars import _packed_sums
    from qhopf.sparse import accumulate
    monkeypatch.setattr(scalars, "PACK_MIN_PAIRS", -10**9)
    # c (1 + q^2) times 1: the bound is |c| itself, so the slots are as
    # narrow as c allows and the digits reach 2^s - 1 and 1
    for bits in (7, 8, 15, 16, 31, 32, 63, 64, 71, 72):
        for c in (2**bits - 1, -(2**bits - 1), 2**bits, -(2**bits)):
            x = ParamScalar({(0, 0): c, (0, 2): c}) * qpow(-3)
            got = _packed_sums([(x, [("t", ONE)]), (ONE, [("u", x)])])
            assert got == {"t": x, "u": x}
            got = _packed_sums([(x, [("t", ONE)]), (-x, [("t", ONE)])])
            assert got == {}
    # zero and field values stay on the dict loop, and so does an empty
    # call at the real threshold (packed, it sums to nothing)
    assert _packed_sums([]) == {}
    field = ONE / (ONE - Q)
    for blocks in ([(field, [("t", P + Q)])], [(P + Q, [("t", field)])],
                   [((P + Q, field), [("t", Q)])], [(ZERO, [("t", Q)])]):
        assert _packed_sums(blocks) is None
        f, ((t, c),) = blocks[0]
        f = f[0] * f[1] if isinstance(f, tuple) else f
        assert accumulate({}, blocks) == ({t: f * c} if f else {})
    monkeypatch.undo()
    assert _packed_sums([]) is None and accumulate({}, []) == {}


def test_packed_sums_bound_a_key_by_the_sum_of_its_products():
    # 1,024 equal products into one key at the real threshold: each
    # product's bound is 2 c0^2 < 2^57, their sum needs 67 bits
    from qhopf.scalars import _packed_sums
    from qhopf.sparse import accumulate
    c0 = 2**28 - 1
    f, c = c0 + c0 * Q, c0 + c0 * P
    blocks = [(f, [("t", c)])] * 1024
    want = ZERO
    for _ in blocks:
        want = want + f * c
    assert _packed_sums(blocks) is not None
    assert accumulate({}, blocks) == {"t": want}


def gcd_factor(rng, kind):
    # a monomial, a polynomial in p alone or in q alone, a mixed one, or
    # one near a power of 256: such a factor in lc_p vanishes at an
    # evaluation point X = 256^k, or its image shares a factor with that
    # of another at X
    if kind == "monomial":
        return {(rng.randint(0, 6), rng.randint(0, 6)): rng.choice([1, -2, 3])}
    if kind == "near 256":
        j, m = rng.randint(1, 3), rng.randint(1, 6)
        return rng.choice([
            {(1, 0): 1, (0, j): -1},
            {(1, 0): 1, (0, 0): -256**j},
            {(0, 1): 1, (0, 0): rng.choice((-1, 0, 1)) - 256**j},
            {(0, 0): 1, rng.choice(((m, 0), (0, m))): -1}])
    f = {}
    for _ in range(rng.randint(2, 4)):
        f[(0 if kind == "q" else rng.randint(0, 3),
           0 if kind == "p" else rng.randint(0, 3))] = rng.randint(-5, 5) or 1
    return f


GCD_KINDS = ("monomial", "p", "q", "mixed", "mixed")


def gcd_product(rng, kinds=GCD_KINDS):
    out = {(0, 0): rng.choice([1, 2, -6])}
    for _ in range(rng.randint(0, 3)):
        out = reference_product(out, gcd_factor(rng, rng.choice(kinds)))
    return out


def neg(f):
    return {m: -v for m, v in f.items()}


# ---------------------------------------------------------------------------
# reference gcd in Z[p, q], by the classical route: as an irreducible
# factor lies in Z[p], in Z[q] or in neither, the gcd of the contents in
# p, times that of the contents in q of the rests, times the last member
# of their primitive remainder sequence in q over Z[p]
# ---------------------------------------------------------------------------

def qdeg(f):
    return max(j for _, j in f)


def primitive(f):
    g = math.gcd(*f.values())
    return {m: c // g for m, c in f.items()}


def pseudo_remainder(a, b):
    # primitive pseudo-remainder of a by b as polynomials in q over Z[p]
    n = qdeg(b)
    lb = {(i, 0): c for (i, j), c in b.items() if j == n}
    while a:
        d = qdeg(a)
        if d < n:
            break
        # minus the leading coefficient of a, times q^(d - n)
        la = {(i, d - n): -c for (i, j), c in a.items() if j == d}
        a = reference_product(a, lb)
        for m, c in reference_product(b, la).items():
            a[m] = a.get(m, 0) + c
        a = {m: c for m, c in a.items() if c}
        if a:
            a = primitive(a)
    return a


def univariate(a, axis):
    # the int list a as a polynomial in the variable `axis`
    return {(e, 0) if axis == 0 else (0, e): c for e, c in enumerate(a) if c}


def split_content(f, axis):
    # (the content of f in the variable `axis` alone, as an int list, and
    # f divided by it, up to an integer factor)
    from qhopf.scalars import _pdiv_exact, _ugcd
    slices: dict = {}
    for m, c in f.items():
        slices.setdefault(m[1 - axis], {})[m[axis]] = c
    g: list = []
    for s in sorted(slices.values(), key=len):
        g = _ugcd([s.get(e, 0) for e in range(max(s) + 1)], g)
        if g == [1]:
            return g, f
    return g, _pdiv_exact(f, univariate(g, axis))


def reference_gcd(f, g):
    # the primitive gcd of nonzero f and g, up to its sign
    from qhopf.scalars import _ugcd
    out = {(0, 0): 1}
    for axis in (0, 1):
        (cf, f), (cg, g) = split_content(f, axis), split_content(g, axis)
        out = reference_product(out, univariate(_ugcd(cf, cg), axis))
    if len(f) > 1 < len(g):
        # a rest without content in p or q is constant or involves both
        g, f = sorted((primitive(f), primitive(g)), key=qdeg)
        while g:
            f, g = g, pseudo_remainder(f, g)
            g = g and split_content(g, 0)[1]
        out = reference_product(out, f)
    return out


def assert_gcd(f, g, c):
    # h = gcd(f, g) with c | f, g, by the reference and by GCDHEU, equal
    # up to sign: primitive, a multiple of c's primitive part, a divisor
    # of both, with coprime cofactors
    from qhopf.scalars import _pdiv_exact, _pgcd
    h = reference_gcd(f, g)
    assert math.gcd(*h.values()) == 1
    cp = {m: v // math.gcd(*c.values()) for m, v in c.items()}
    _pdiv_exact(h, cp)
    cofactors = _pdiv_exact(f, h), _pdiv_exact(g, h)
    assert reference_gcd(*cofactors) in ({(0, 0): 1}, {(0, 0): -1})
    assert _pgcd(f, g) in ((h, *cofactors), (neg(h), *map(neg, cofactors)))
    return h


@pytest.mark.parametrize("seed", range(4))
def test_gcd_of_products_with_a_common_factor(seed):
    # seed 3 mixes in factors near powers of 256, which GCDHEU's first
    # evaluation points can be roots of
    rng = random.Random(1700 + seed)
    kinds = GCD_KINDS[:4] + ("near 256",) * 2 if seed == 3 else GCD_KINDS
    for _ in range(150):
        a, b, c = (gcd_product(rng, kinds) for _ in range(3))
        assert_gcd(reference_product(a, c), reference_product(b, c), c)


def test_gcd_fixed_cases():
    # a monomial against a dense polynomial: it leaves through the contents
    dense = {(i, j): (i + 2 * j) % 7 - 3 for i in range(4) for j in range(4)
             if (i + 2 * j) % 7 != 3}
    mono = {(14, 18): 1}
    assert assert_gcd(mono, dense, {(0, 0): 1}) == {(0, 0): 1}
    shifted = {(i + 3, j + 20): v for (i, j), v in dense.items()}
    assert assert_gcd(mono, shifted, {(3, 18): 1}) == {(3, 18): 1}
    # p alone against q alone, with a common integer factor
    pure_p = reference_product({(0, 0): 6, (1, 0): -6}, {(0, 0): 2, (2, 0): 1})
    pure_q = reference_product({(0, 0): 4, (0, 3): 2}, {(0, 0): 1, (0, 1): 1})
    assert assert_gcd(pure_p, pure_q, {(0, 0): 2}) == {(0, 0): 1}
    # the q-Pochhammer (q; q)_12 against an integer multiple of it
    poch = {(0, 0): 1}
    for m in range(1, 13):
        poch = reference_product(poch, {(0, 0): 1, (0, m): -1})
    h = assert_gcd(poch, {m: 15 * v for m, v in poch.items()}, poch)
    assert h in (poch, neg(poch))
    # a factor in q alone: at q = X it is the integer content of the gcd
    # in Z[p] of the images, (1 + X^2) times p^2, so dropping that content
    # would certify the proper divisor p^2
    common = {(2, 0): 1, (2, 2): 1}
    h = assert_gcd(
        reference_product(common, {(0, 0): 3, (1, 1): 1, (0, 3): -2}),
        reference_product(common, {(0, 0): 1, (1, 0): -1, (2, 1): 5}), common)
    assert h in (common, neg(common))
    # X = 256 sized from the smaller max-norm is a root of the other
    # operand's leading coefficient in p: q - 256 evaluates to 0 and
    # p q - 256 p + 1 to 1, so that X is passed over, not used
    one = {(0, 0): 1}
    for f, g in [({(0, 1): 1, (0, 0): -256}, {(0, 0): 1, (0, 1): 1}),
                 ({(1, 1): 1, (1, 0): -256, (0, 0): 1},
                  {(0, 0): 1, (0, 1): 1, (2, 0): 1})]:
        for x, y in ((f, g), (g, f)):
            h = assert_gcd(x, y, one)
            assert h in (one, neg(one))
    # lc_p(f) = (q - 256) ... (q - 256^7) vanishes at the first seven
    # points X = 256^k, so GCDHEU certifies p + 1 at the eighth
    common = {(0, 0): 1, (1, 0): 1}
    f = common
    for j in range(1, 8):
        f = reference_product(f, {(0, 1): 1, (0, 0): -256**j})
    g = reference_product(reference_product(common, {(0, 0): 1, (0, 1): 1}),
                          {(1, 0): 1, (0, 1): -1})
    h = assert_gcd(f, g, common)
    assert h in (common, neg(common))


def shaped_factor(rng, terms, dp, dq):
    # `terms` terms with coefficients in [-9, 9], a nonzero constant and
    # one of q-degree dq, p-degrees at most dp
    def coefficient():
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    f = {(0, 0): coefficient(), (rng.randint(0, dp), dq): coefficient()}
    while len(f) < terms:
        f[rng.randint(0, dp), rng.randint(0, dq)] = coefficient()
    return f


@pytest.mark.parametrize("seed, common, left, right, shape", [
    # the 1,144-character normalize input's shape: mixed factors of degree
    # up to 6, q-degree 22, 35 and 41 terms
    (791791, (3, 6, 6), [(3, 6, 6), (3, 6, 6), (2, 6, 4)],
     [(3, 6, 6), (3, 6, 6), (3, 6, 4)], (35, 41, 22)),
    # a 6-term common factor of a 93- and a 124-term polynomial of
    # p-degree up to 12 and q-degree 14
    (603, (6, 3, 4), [(6, 4, 5), (6, 5, 5)], [(8, 4, 5), (8, 5, 5)],
     (93, 124, 14))], ids=["35x41", "93x124"])
def test_gcd_of_pairs_past_the_remainder_sequence(seed, common, left, right,
                                                  shape):
    # the remainder sequence (reference_gcd above) takes over a minute on
    # either pair; GCDHEU returns the common factor
    from qhopf.scalars import _pdiv_exact, _pgcd
    rng = random.Random(seed)
    c = shaped_factor(rng, *common)
    f, g = c, c
    for spec in left:
        f = reference_product(f, shaped_factor(rng, *spec))
    for spec in right:
        g = reference_product(g, shaped_factor(rng, *spec))
    assert (len(f), len(g), max(j for _, j in f)) == shape
    h, fh, gh = _pgcd(f, g)
    assert h in (c, neg(c))
    assert (fh, gh) == tuple(_pdiv_exact(x, h) for x in (f, g))


@pytest.mark.parametrize("seed", range(4))
def test_exact_division_inverts_the_product(seed):
    from qhopf.scalars import _pdiv_exact
    rng = random.Random(500 + seed)
    for _ in range(20):
        g, h = (random_int_poly(rng, rng.choice([1, 2, 4, 9]),
                                rng.random() < 0.6, rng.random() < 0.3)
                for _ in range(2))
        # exponents >= 0, as on the field path
        g = {(i + 20, j + 20): c for (i, j), c in g.items()}
        h = {(i + 20, j + 20): c for (i, j), c in h.items()}
        f = reference_product(g, h)
        assert _pdiv_exact(f, g) == h
        with pytest.raises(ArithmeticError):
            _pdiv_exact(reference_product(f, {(0, 0): 1, (1, 0): 1})
                        | {(0, 0): 1}, g)
    # p -> x, q -> x packs 1 - p and 1 - q alike: the q-degree
    # certificate must reject the false quotient 1
    with pytest.raises(ArithmeticError):
        _pdiv_exact({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): -1})


@pytest.mark.parametrize("param, s", [("q", qpow), ("p", ppow)])
def test_quotient_by_one_minus_a_power(param, s):
    from qhopf.scalars import _quotient_one_minus
    rng = random.Random(41)
    for _ in range(30):
        # a Laurent value with negative offsets, or skipped
        x = random_poly_scalar(rng, 4) * ppow(-2) * qpow(-3)
        k = rng.randint(1, 5)
        if x.is_zero() or x._d is not None:
            continue
        assert _quotient_one_minus(x * (ONE - s(k)), k, param) == x
        want = x / (ONE - s(k))
        got = _quotient_one_minus(x, k, param)
        assert got is None if want._d is not None else got == want
    assert _quotient_one_minus(ZERO, 3, param) == ZERO
    # vanishes at s = 1 without being divisible, and a field value
    x = (ONE - s(1)) * (ONE + s(2))
    assert _quotient_one_minus(x, 2, param) is None
    assert _quotient_one_minus((ONE - s(2)) / (ONE - P * Q), 2, param) is None


def random_poly_scalar(rng, max_deg=2):
    x = ZERO
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(-6, 6)
        if rng.random() < 0.15:
            c = Fraction(c, rng.randint(1, 5))
        x = x + scalar(c) * ppow(rng.randint(0, max_deg)) \
            * qpow(rng.randint(0, max_deg))
    return x


FIELD_POINTS = [(Fraction(3, 7), Fraction(5, 11)),
                (Fraction(-2, 13), Fraction(9, 17)),
                (Fraction(11, 3), Fraction(-4, 5))]


def value_at(x, pv, qv):
    try:
        return x.evaluate(pv, qv)
    except ZeroDivisionError:
        return None


@pytest.mark.parametrize("seed", range(3))
def test_field_path_against_exact_evaluation(seed):
    rng = random.Random(1000 + seed)
    for _ in range(12):
        a, b, c = (random_poly_scalar(rng) for _ in range(3))
        if b.is_zero() or c.is_zero():
            continue
        # a common factor cancels to the same canonical value and string
        x = (a * c) / (b * c)
        assert x == a / b and str(x) == str(a / b)
        y = ONE / (ONE - P * Q) + random_laurent(rng)
        for pv, qv in FIELD_POINTS:
            xv, yv = value_at(x, pv, qv), value_at(y, pv, qv)
            if xv is None or yv is None:
                continue
            assert (x + y).evaluate(pv, qv) == xv + yv
            assert (x - y).evaluate(pv, qv) == xv - yv
            assert (x * y).evaluate(pv, qv) == xv * yv
            if yv:
                assert (x / y).evaluate(pv, qv) == xv / yv
            if xv:
                assert (y / x).evaluate(pv, qv) == yv / xv
        # multiplying and dividing by a field value cancel exactly
        assert (x * y) / y == x
        assert (x * (ONE - P)) / (ONE - P) == x


@pytest.mark.parametrize("seed", range(4))
def test_rendering_reads_back(seed):
    # a product monomial denominator is bracketed: 1/p*q would read as q/p
    assert str(ONE / (P * Q)) == "1/(p*q)"
    assert str(scalar(Fraction(-3, 2)) * ppow(-2) * qpow(-1)) == \
        "(-3/2)/(p^2*q)"
    rng = random.Random(1200 + seed)
    for _ in range(25):
        shift = ppow(-rng.randint(0, 3)) * qpow(-rng.randint(0, 3))
        laurent = random_laurent(rng) * shift
        den = random_poly_scalar(rng)
        field = random_poly_scalar(rng) / den * shift if den else laurent
        for x in (laurent, field, laurent + ONE / (ONE - P * Q)):
            assert evaluate_scalar(str(x)) == x, str(x)


# ---------------------------------------------------------------------------
# the offset form of Laurent values against plain true-exponent dicts
# ---------------------------------------------------------------------------

def true_dict(x):
    # the signed-exponent dict of a Laurent value, read through num/den
    ((di, dj), dc), = x.den.items()
    assert dc == 1
    return {(i - di, j - dj): c for (i, j), c in x.num.items()}


def ref_add(f, g, sign=1):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_at(f, pv, qv):
    return sum((c * pv**i * qv**j for (i, j), c in f.items()), Fraction(0))


OFFSET_POINTS = [(Fraction(2, 3), Fraction(-5, 7)),
                 (Fraction(-9, 4), Fraction(3, 11))]


def random_true_dict(rng):
    # a window of exponents at a random, often negative, corner; one in
    # five values is univariate, one in five a single term
    i0, j0 = rng.randint(-9, 5), rng.randint(-9, 5)
    terms = 1 if rng.random() < 0.2 else rng.randint(2, 7)
    wide = rng.random() < 0.8
    out = {}
    for _ in range(terms):
        c = rng.choice([1, -1, 3, rng.randint(-40, 40) or 2])
        out[(i0 + (rng.randint(0, 4) if wide else 0),
             j0 + rng.randint(0, 4))] = c
    return out


def check_against(x, f):
    # x is the Laurent value of the true dict f, in offset form
    assert laurent_normal(x) and one_form(x)
    assert true_dict(x) == f
    y = ParamScalar(f)
    assert x == y and hash(x) == hash(y) and str(x) == str(y)
    for pv, qv in OFFSET_POINTS:
        assert x.evaluate(pv, qv) == ref_at(f, pv, qv)


def offset_cases(rng):
    # pairs (x, y) with their true dicts: crossing offsets, cancelling
    # lowest terms and monomial factors first, then random pairs
    cases = [
        ({(-3, 2): 1, (-3, 3): 1}, {(1, -2): 1, (2, -2): 1}),   # crossing
        ({(-1, 0): 1, (0, 1): 2}, {(-1, 0): -1, (0, 0): 1}),    # low p
        ({(0, -4): 5, (2, 1): 1}, {(0, -4): -5, (1, 0): 1}),    # low q
        ({(-2, -2): 3, (1, 0): -1}, {(-2, -2): -3, (1, 0): 1}),  # all
        ({(0, 7): 1}, {(1, 1): 1, (0, 2): -3, (4, 0): 1}),      # c = 1
        ({(-2, 0): -1}, {(1, 1): 2, (0, 3): 1, (2, 2): -1}),    # c = -1
        ({(0, -4): 3}, {(-5, 0): 1, (0, -5): 1, (-3, 3): 7}),   # c = 3
    ]
    for _ in range(60):
        cases.append((random_true_dict(rng), random_true_dict(rng)))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_offset_arithmetic_against_true_exponents(seed):
    rng = random.Random(1300 + seed)
    for f, g in offset_cases(rng):
        x, y = ParamScalar(f), ParamScalar(g)
        check_against(x, f)
        check_against(y, g)
        check_against(x + y, ref_add(f, g))
        check_against(y + x, ref_add(f, g))
        check_against(x - y, ref_add(f, g, -1))
        check_against(y - x, ref_add(g, f, -1))
        check_against(-x, {m: -c for m, c in f.items()})
        check_against(x * y, reference_product(f, g))
        check_against(y * x, reference_product(f, g))
        check_against(x - x, {})
        check_against(x * ZERO, {})
        check_against(ZERO * y, {})
        assert x - x == ZERO and hash(x - x) == hash(0)
        for k in range(4):
            want = {(0, 0): 1}
            for _ in range(k):
                want = reference_product(want, f)
            check_against(x ** k, want)
        assert (x == y) == (f == g)
        # division and negative powers leave the ring: compare values
        for pv, qv in OFFSET_POINTS:
            xv, yv = ref_at(f, pv, qv), ref_at(g, pv, qv)
            assert (x / y).evaluate(pv, qv) == xv / yv
            assert (x ** -2).evaluate(pv, qv) == xv ** -2
        assert laurent_normal(x / y) and (x / y) * y == x
        # a field value built from Laurent ones, and back
        z = (qpow(-5) * x) / (ONE - Q)
        assert laurent_normal(z) and one_form(z)
        check_against(z * (ONE - Q) * qpow(5), f)
        for pv, qv in OFFSET_POINTS:
            assert z.evaluate(pv, qv) == \
                ref_at(f, pv, qv) * qv**-5 / (1 - qv)


def test_every_route_to_the_unit_is_one():
    routes = [qpow(3) * qpow(-3), Q * (ONE / Q), ParamScalar({(0, 0): 1}),
              ONE, ppow(-2) * ppow(2), qpow(-4) ** 0]
    for x in routes:
        assert x == ONE and hash(x) == 1 and laurent_normal(x)
        assert str(x) == "1" and x.is_integer() and x.as_fraction() == 1


def test_monomial_factors_share_the_coefficient_dict():
    x = ppow(-2) * qpow(3) * (ONE + P - 3 * Q * Q + P * Q)
    assert len(x._n) >= 3
    assert (qpow(7) * x)._n is x._n
    assert (x * ppow(-3))._n is x._n
    assert (x * ppow(-3)) * ppow(3) == x


def test_offset_values_copy_and_pickle():
    for x in (ppow(-3) * qpow(5) * (ONE - 2 * P + Q), qpow(-7), ppow(4),
              (ONE + qpow(-2)) / (ONE - P)):
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and str(y) == str(x)
            assert laurent_normal(y) and y * ONE == x and y + ZERO == x
