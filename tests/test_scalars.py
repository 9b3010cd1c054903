"""Exact coefficient field and Gauss binomials."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qhopf.exprs import evaluate_scalar
from qhopf.scalars import (ONE, P, Q, ZERO, ParamScalar, ppow, qbinomial,
                           qbinomial_quotient, qpow, scalar)


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
    for n in range(1, 11):
        for k in range(1, n):
            assert qbinomial(n, k) == \
                qbinomial(n - 1, k - 1) + qpow(k) * qbinomial(n - 1, k)


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


def test_division_by_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ParamScalar({(0, 0): 1}, {})


# ---------------------------------------------------------------------------
# field laws on random scalars
# ---------------------------------------------------------------------------

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


def test_swap_parameters():
    x = (ONE - Q * Q) / (ONE - P)
    y = x.subs_swap()
    assert y == (ONE - P * P) / (ONE - Q)


def test_canonical_strings():
    assert str((ONE - Q * Q) / (ONE - P)) == "(1 - q^2)/(1 - p)"
    assert str(ONE / (ONE - Q)) == "1/(1 - q)"
    assert str(-ONE) == "-1"
    assert str(qbinomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(scalar(Fraction(3, 2)) * P) == "3/2*p"


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
        if "*" not in str(den):
            # a product denominator renders unbracketed: "1/p*q" reads
            # back as q/p, so only single-power denominators round-trip
            assert evaluate_scalar(str(x)) == x
        assert str(x.subs_swap().subs_swap()) == str(x)
