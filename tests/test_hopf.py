"""Circle Hopf structure and the coaction."""

import random

from qhopf.scalars import ONE, Q, scalar
from qhopf.hopf import (CotensorElement, LaurentElement, coaction,
                        coaction_is_coassociative, coaction_is_multiplicative,
                        coproduct, counit_law_holds)
from qhopf.s3core import AlgElement, BasisMonomial, mul
from qhopf.verify import random_element


def test_antipode_negates_powers():
    u3 = LaurentElement.u_power(3)
    assert u3.antipode() == LaurentElement.u_power(-3)
    assert u3.star() == LaurentElement.u_power(-3)


def test_counit_is_one_on_group_likes():
    for k in range(-5, 6):
        assert LaurentElement.u_power(k).counit() == ONE
    x = LaurentElement({2: Q, -1: scalar(3)})
    assert x.counit() == Q + scalar(3)


def test_antipode_is_an_involution():
    x = LaurentElement({3: ONE, -1: scalar(2), 0: Q})
    assert x.antipode().antipode() == x
    assert x.star() == x.antipode()


def test_coproduct_is_diagonal():
    x = LaurentElement({2: Q, -3: ONE})
    assert coproduct(x) == {(2, 2): Q, (-3, -3): ONE}
    assert coproduct(x) == {(k, k): c for k, c in x.terms.items()}


def test_laurent_ring():
    u = LaurentElement.u_power(1)
    assert u * u.antipode() == LaurentElement.one()
    assert (u + u) - u == u
    assert u * LaurentElement.u_power(4) == LaurentElement.u_power(5)


def test_coaction_examples():
    a = AlgElement.generator("a")
    b = AlgElement.generator("b")
    bs = AlgElement.generator("b*")
    assert coaction(a) == CotensorElement(
        {(BasisMonomial(1, 0, 0, 0), 1): ONE})
    bbs = mul(b, bs)
    assert coaction(bbs) == CotensorElement(
        {(t, 0): c for t, c in bbs.terms.items()})
    x = mul(mul(a, a), bs)
    assert coaction(x) == CotensorElement(
        {(BasisMonomial(2, 0, 0, -1), 3): ONE})


def test_coaction_laws_on_random_elements():
    rng = random.Random(11)
    for _ in range(60):
        x = random_element(rng)
        assert coaction_is_coassociative(x)
        assert counit_law_holds(x)
    for _ in range(60):
        assert coaction_is_multiplicative(random_element(rng),
                                          random_element(rng))


def test_cotensor_product_respects_circle_powers():
    a = AlgElement.generator("a")
    b = AlgElement.generator("b")
    lhs = coaction(a) * coaction(b)
    assert lhs == coaction(mul(a, b))
    assert set(k for (_, k) in lhs.terms) == {0}
