"""Normal forms, relations, and structure maps of the sphere algebra."""

import random
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhopf.scalars import ONE, P, Q, ppow, qpow, scalar
from qhopf.s3core import (FLAG_A, FLAG_B, _LETTER_MONO, AlgElement,
                          BasisMonomial, UNIT_MONO, _word, iota_image,
                          monomial, mul, substitute)
from qhopf import numrep, s3core
from qhopf.sparse import extend

A = AlgElement.generator("a")
AS = AlgElement.generator("a*")
B = AlgElement.generator("b")
BS = AlgElement.generator("b*")
ONE_EL = AlgElement.one()
BETA = ONE_EL - mul(A, AS)      # 1 - a a*
GAMMA = ONE_EL - mul(B, BS)     # 1 - b b*


def elements_strategy(max_shift=2, max_flag=2):
    def build(seed):
        rng = random.Random(seed)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mu = rng.randint(-max_shift, max_shift)
            nu = rng.randint(-max_shift, max_shift)
            m = rng.randint(0, max_flag)
            n = 0 if m else rng.randint(0, max_flag)
            c = scalar(rng.randint(-3, 3)) + P * rng.randint(-1, 1) \
                + Q * rng.randint(-1, 1)
            if c.is_zero():
                c = ONE
            terms[BasisMonomial(mu, m, n, nu)] = c
        return AlgElement(terms)
    return st.builds(build, st.integers(0, 10 ** 9))


def test_monomial_validator():
    assert monomial(1, 0, 2, -1) == BasisMonomial(1, 0, 2, -1)
    with pytest.raises(ValueError):
        monomial(0, 1, 1, 0)
    with pytest.raises(ValueError):
        monomial(0, -1, 0, 0)


def test_defining_relations_normalize_to_zero():
    assert (mul(AS, A) - Q * mul(A, AS) - (ONE - Q) * ONE_EL).is_zero()
    assert (mul(BS, B) - P * mul(B, BS) - (ONE - P) * ONE_EL).is_zero()
    assert (mul(A, B) - mul(B, A)).is_zero()
    assert (mul(AS, B) - mul(B, AS)).is_zero()
    assert mul(BETA, GAMMA).is_zero()
    assert mul(GAMMA, BETA).is_zero()


def test_mul_by_generator_examples():
    # a* times a on the right picks up the flag:  a*a = 1 - q(1-aa*)
    got = mul(AS, A)
    assert got == AlgElement({UNIT_MONO: ONE,
                              BasisMonomial(0, 1, 0, 0): -Q})
    # (1-aa*) b b* collapses back to (1-aa*)
    flag = AlgElement.from_monomial(BasisMonomial(0, 1, 0, 0))
    got = mul(mul(flag, B), BS)
    assert got == flag
    # multiplying the unit gives the generator monomial itself
    for g in ("a", "a*", "b", "b*"):
        gel = AlgElement.generator(g)
        assert mul(ONE_EL, gel) == gel
        assert mul(gel, ONE_EL) == gel


def test_unit_laws():
    rng = random.Random(1)
    for _ in range(20):
        terms = {BasisMonomial(rng.randint(-2, 2), 0, 0,
                               rng.randint(-2, 2)): ONE}
        x = AlgElement(terms)
        assert mul(x, ONE_EL) == x
        assert mul(ONE_EL, x) == x


def test_star_examples():
    assert A.star() == AlgElement({BasisMonomial(-1, 0, 0, 0): ONE})
    assert BETA.star() == BETA
    assert GAMMA.star() == GAMMA
    # a (1-aa*) reversed:  ((1-aa*) a)* needs the commutation power
    x = mul(A, BETA)
    assert x.star() == qpow(-1) * mul(AS, BETA)


@settings(max_examples=50, deadline=None)
@given(elements_strategy())
def test_star_has_order_two(x):
    assert x.star().star() == x


@settings(max_examples=50, deadline=None)
@given(elements_strategy(), elements_strategy())
def test_star_is_antimultiplicative(x, y):
    assert mul(x, y).star() == mul(y.star(), x.star())


@settings(max_examples=40, deadline=None)
@given(elements_strategy(), elements_strategy(), elements_strategy())
def test_associativity(x, y, z):
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_normalize_word_examples():
    assert mul(AS, A) == \
        AlgElement({UNIT_MONO: ONE, BasisMonomial(0, 1, 0, 0): -Q})
    assert mul(A, AS) == \
        AlgElement({UNIT_MONO: ONE, BasisMonomial(0, 1, 0, 0): -ONE})
    # bb* aa* = (1 - (1-bb*)) (1 - (1-aa*)) = 1 - (1-aa*) - (1-bb*)
    got = mul(mul(mul(B, BS), A), AS)
    want = AlgElement({UNIT_MONO: ONE,
                       BasisMonomial(0, 1, 0, 0): -ONE,
                       BasisMonomial(0, 0, 1, 0): -ONE})
    assert got == want
    with pytest.raises(ValueError):
        AlgElement.generator("z")


def test_normalize_word_against_numeric_oracle():
    # the derived value above must match the operator picture
    got = mul(mul(mul(B, BS), A), AS)
    rep = numrep.build_rep("rho1theta", (0.3,), 40, 0.5, 0.3)
    word = rep.gen("b") @ rep.gen("b*") @ rep.gen("a") @ rep.gen("a*")
    diff = numrep.evaluate(got, rep) - word
    assert np.linalg.norm(diff[:, :36], 2) <= 1e-12


def test_winding_examples():
    assert A.winding_components() == {1: A}
    assert B.winding_components() == {-1: B}
    ab = mul(A, B)
    assert ab.winding_components() == {0: ab}
    assert A.terms and next(iter(A.terms)).winding == 1


@settings(max_examples=40, deadline=None)
@given(elements_strategy(), elements_strategy())
def test_winding_additivity_under_products(x, y):
    conv = {}
    for i, xi in x.winding_components().items():
        for j, yj in y.winding_components().items():
            w = i + j
            conv[w] = conv.get(w, AlgElement.zero()) + mul(xi, yj)
    conv = {w: e for w, e in conv.items() if e}
    assert conv == mul(x, y).winding_components()
    # and the parts reassemble
    total = AlgElement.zero()
    for part in x.winding_components().values():
        total = total + part
    assert total == x


def test_iota_examples():
    f0 = iota_image("f0")
    assert f0 == ONE_EL - GAMMA
    assert iota_image("f1") == mul(B, A)
    assert iota_image("f1*") == mul(AS, BS)
    with pytest.raises(ValueError):
        iota_image("f2")


def test_base_relations_vanish_under_iota():
    f0, f1, f1s = (iota_image(k) for k in ("f0", "f1", "f1*"))
    assert (f0.star() - f0).is_zero()
    assert (mul(f1s, f1) - Q * mul(f1, f1s) - (P - Q) * f0
            - (ONE - P) * ONE_EL).is_zero()
    assert (mul(f0, f1) - P * mul(f1, f0) - (ONE - P) * f1).is_zero()
    assert mul(ONE_EL - f0, mul(f1, f1s) - f0).is_zero()


def _iota_word(word):
    return reduce(mul, map(iota_image, word), ONE_EL)


def test_iota_word_and_polynomial():
    poly = {("f1*", "f1"): ONE, ("f1", "f1*"): -Q, ("f0",): -(P - Q),
            (): -(ONE - P)}
    total = AlgElement.zero()
    for word, c in poly.items():
        total = total + c * _iota_word(word)
    assert total.is_zero()


def test_coinvariance():
    assert iota_image("f0").is_coinvariant()
    assert not A.is_coinvariant()
    assert (mul(A, B) + mul(B, BS)).is_coinvariant()
    # every iota image of a random word is coinvariant
    rng = random.Random(3)
    for _ in range(20):
        word = [rng.choice(["f0", "f1", "f1*"])
                for _ in range(rng.randint(0, 4))]
        assert _iota_word(word).is_coinvariant()


def test_matrix_oracle_for_products():
    # symbolic products agree with operator products on safe columns
    rng = random.Random(5)
    for family in ("rho1theta", "rho2theta"):
        rep = numrep.build_rep(family, (1.234,), 30, 0.5, 1.0 / 3.0)
        for _ in range(15):
            terms1 = {BasisMonomial(rng.randint(-2, 2), 0, 0,
                                    rng.randint(-2, 2)): ONE}
            terms2 = {BasisMonomial(rng.randint(-2, 2),
                                    rng.randint(0, 2), 0,
                                    rng.randint(-2, 2)): Q}
            x, y = AlgElement(terms1), AlgElement(terms2)
            assert numrep.homomorphism_defect(x, y, rep) <= 1e-10


def test_rendering_and_json():
    x = mul(AS, A)
    assert x.text() == "1 - q*(1 - a a^*)"
    assert x.json_terms() == [
        {"mu": 0, "m": 0, "n": 0, "nu": 0, "coeff": "1"},
        {"mu": 0, "m": 1, "n": 0, "nu": 0, "coeff": "-q"},
    ]
    assert AlgElement.zero().text() == "0"
    assert BasisMonomial(-2, 1, 0, 3).text() == "a^*^2 (1 - a a^*) b^3"


def _monomials(degree):
    # every basis monomial with |mu| + m + n + |nu| <= degree
    for mu in range(-degree, degree + 1):
        for nu in range(abs(mu) - degree, degree + 1 - abs(mu)):
            rest = degree - abs(mu) - abs(nu)
            yield BasisMonomial(mu, 0, 0, nu)
            for k in range(1, rest + 1):
                yield BasisMonomial(mu, k, 0, nu)
                yield BasisMonomial(mu, 0, k, nu)


def test_substituting_the_generators_into_a_word_gives_its_monomial():
    images = {"a": A, "a*": AS, "b": B, "b*": BS, FLAG_A: BETA,
              FLAG_B: GAMMA}
    count = 0
    for t in _monomials(4):
        word = _word(t)
        assert len(word) == abs(t.mu) + t.m + t.n + abs(t.nu)
        assert substitute(word, images, ONE_EL) == AlgElement.from_monomial(t)
        count += 1
    assert count == 129
    assert substitute((), images, ONE_EL) == ONE_EL


def test_flag_letter_rules_match_their_generator_products():
    # one flag letter acts as 1 - g g*, from either side
    for t in _monomials(4):
        x = AlgElement.from_monomial(t)
        for flag, g, gst in ((FLAG_A, A, AS), (FLAG_B, B, BS)):
            letter = AlgElement._raw({_LETTER_MONO[flag]: ONE})
            assert mul(x, letter) == x - mul(mul(x, g), gst)
            assert mul(letter, x) == x - mul(g, mul(gst, x))


# -- the reference fold: single-letter rewrite rules -------------------------
#
# Each rule returns the canonical expansion of t*g (or g*t) for one
# letter g as a list of (monomial, coefficient) pairs, from the defining
# relations and the flag commutations
#     (1-aa*) a  = q a (1-aa*),   (1-aa*) a* = q^-1 a* (1-aa*),
#     (1-bb*) b  = p b (1-bb*),   (1-bb*) b* = p^-1 b* (1-bb*).
# Folding a word's letters onto a monomial multiplies by the word.

def _right_letter(g, t):
    mu, m, n, nu = t
    if g == "a":
        out = [(BasisMonomial(mu + 1, m, n, nu), qpow(m))]
        if mu < 0 and n == 0:
            out.append((BasisMonomial(mu + 1, m + 1, n, nu), -qpow(m + 1)))
    elif g == "a*":
        out = [(BasisMonomial(mu - 1, m, n, nu), qpow(-m))]
        if mu > 0 and n == 0:
            out.append((BasisMonomial(mu - 1, m + 1, n, nu), -qpow(-m)))
    elif g == "b":
        out = [(BasisMonomial(mu, m, n, nu + 1), ONE)]
        if nu < 0 and m == 0:
            out.append((BasisMonomial(mu, m, n + 1, nu + 1), -ppow(-nu)))
    elif g == "b*":
        out = [(BasisMonomial(mu, m, n, nu - 1), ONE)]
        if nu > 0 and m == 0:
            out.append((BasisMonomial(mu, m, n + 1, nu - 1), -ppow(1 - nu)))
    elif g == FLAG_A:
        out = [] if n else [(BasisMonomial(mu, m + 1, 0, nu), ONE)]
    else:
        out = [] if m else [(BasisMonomial(mu, 0, n + 1, nu), ppow(-nu))]
    return out


def _left_letter(g, t):
    mu, m, n, nu = t
    if g == "a":
        out = [(BasisMonomial(mu + 1, m, n, nu), ONE)]
        if mu < 0 and n == 0:
            out.append((BasisMonomial(mu + 1, m + 1, n, nu), -qpow(mu + 1)))
    elif g == "a*":
        out = [(BasisMonomial(mu - 1, m, n, nu), ONE)]
        if mu > 0 and n == 0:
            out.append((BasisMonomial(mu - 1, m + 1, n, nu), -qpow(mu)))
    elif g == "b":
        out = [(BasisMonomial(mu, m, n, nu + 1), ppow(-n))]
        if nu < 0 and m == 0:
            out.append((BasisMonomial(mu, m, n + 1, nu + 1), -ppow(-n)))
    elif g == "b*":
        out = [(BasisMonomial(mu, m, n, nu - 1), ppow(n))]
        if nu > 0 and m == 0:
            out.append((BasisMonomial(mu, m, n + 1, nu - 1), -ppow(n + 1)))
    elif g == FLAG_A:
        out = [] if n else [(BasisMonomial(mu, m + 1, 0, nu), qpow(mu))]
    else:
        out = [] if m else [(BasisMonomial(mu, 0, n + 1, nu), ONE)]
    return out


_RIGHT_RULES = {g: partial(_right_letter, g) for g in _LETTER_MONO}
_LEFT_RULES = {g: partial(_left_letter, g) for g in _LETTER_MONO}


def _folds(t1, t2):
    # t1 * t2 twice: the letters of t2 onto t1 from the right, and the
    # letters of t1 onto t2 from the left, innermost first
    return (substitute(_word(t2), _RIGHT_RULES, {t1: ONE}, extend),
            substitute(reversed(_word(t1)), _LEFT_RULES, {t2: ONE}, extend))


def _check_product(t1, t2):
    got = s3core._mono_mul(t1, t2)
    keys = [t for t, _ in got]
    assert len(set(keys)) == len(keys) and all(c for _, c in got)
    assert all(monomial(*t) == t for t in keys)
    right, left = _folds(t1, t2)
    assert dict(got) == right == left, (t1, t2)


def test_monomial_products_match_the_letter_fold_on_a_box():
    # every pair with |mu|, |nu| <= 2 and m, n <= 2 (m n = 0)
    box = [BasisMonomial(mu, m, n, nu) for mu in range(-2, 3)
           for nu in range(-2, 3) for m in range(3) for n in range(3)
           if not (m and n)]
    assert len(box) ** 2 == 15625
    for t1 in box:
        for t2 in box:
            _check_product(t1, t2)


@pytest.mark.parametrize("seed", range(4))
def test_monomial_products_match_the_letter_fold_far_out(seed):
    # seeded pairs with reach |mu| + |nu| up to 12 and flags up to 6,
    # in both orders
    rng = random.Random(seed)

    def draw():
        mu = rng.randint(-12, 12)
        reach = 12 - abs(mu)
        m = rng.randint(0, 6)
        n = 0 if m else rng.randint(0, 6)
        return BasisMonomial(mu, m, n, rng.randint(-reach, reach))

    for _ in range(15):
        t1, t2 = draw(), draw()
        _check_product(t1, t2)
        _check_product(t2, t1)



def test_opposite_sign_products_negate_no_coefficient(monkeypatch):
    # the sign (-1)^j of a Gauss-binomial term comes from a stored negated
    # row, so a cold product negates no coefficient
    from qhopf import scalars
    from qhopf.scalars import ParamScalar
    pairs = [(BasisMonomial(5, 0, 0, -3), BasisMonomial(-7, 0, 0, 4)),
             (BasisMonomial(-6, 0, 0, 2), BasisMonomial(4, 0, 0, -5)),
             (BasisMonomial(3, 2, 0, 0), BasisMonomial(-4, 0, 0, 1))]
    negations = []
    neg = ParamScalar.__neg__
    monkeypatch.setattr(scalars, "_QBIN_ROWS", {})
    monkeypatch.setattr(s3core, "_MONO_MUL_CACHE", {})
    monkeypatch.setattr(ParamScalar, "__neg__",
                        lambda x: negations.append(x) or neg(x))
    got = [s3core._mono_mul(t1, t2) for t1, t2 in pairs]
    monkeypatch.undo()
    assert negations == []
    for (t1, t2), terms in zip(pairs, got):
        right, left = _folds(t1, t2)
        assert len(terms) > 2 and dict(terms) == right == left
