"""Quantum discs, chart maps, and the boundary gluing."""

import itertools
import random
from fractions import Fraction

import pytest

from qhopf.scalars import ONE, P, Q
from qhopf.gluing import (DiscElement, TrivializedElement, boundary,
                          boundary_tensor, chi, disc_generator, gluing_check,
                          phi12, trivialization_colinear,
                          trivialization_over_base)
from qhopf.hopf import LaurentElement
from qhopf.s3core import AlgElement, BasisMonomial, _mono_mul, iota_image, mul
from qhopf.verify import random_coinvariant, random_element


X = disc_generator("p")
XS = disc_generator("p", starred=True)
ONE_P = DiscElement.one("p")
W = ONE_P - X * XS   # 1 - x x*


def test_disc_relations():
    # x* x = 1 - p (1 - x x*)
    assert XS * X == DiscElement("p", {(0, 0): ONE, (0, 1): -P})
    # x x* = 1 - (1 - x x*)
    assert X * XS == DiscElement("p", {(0, 0): ONE, (0, 1): -ONE})
    # (1 - x x*) x = p x (1 - x x*)
    assert W * X == DiscElement("p", {(1, 1): P})
    # and the q-tagged disc uses q
    y, ys = disc_generator("q"), disc_generator("q", starred=True)
    assert ys * y == DiscElement("q", {(0, 0): ONE, (0, 1): -Q})


def test_disc_relation_in_element_form():
    lhs = XS * X - P * (X * XS)
    assert lhs == DiscElement("p", {(0, 0): ONE - P})


def test_disc_element_text():
    for tag, g in (("p", "x"), ("q", "y")):
        powers = {0: [], 1: [g], 2: [f"{g}^2"], -1: [f"{g}^*"],
                  -2: [f"{g}^*^2"]}
        flags = {0: [], 1: [f"(1 - {g} {g}^*)"], 2: [f"(1 - {g} {g}^*)^2"]}
        for mu, m in itertools.product(powers, flags):
            want = " ".join(powers[mu] + flags[m]) or "1"
            assert str(DiscElement(tag, {(mu, m): ONE})) == want, (tag, mu, m)
    assert str(DiscElement("q", {(-2, 1): ONE})) == "y^*^2 (1 - y y^*)"
    assert str(DiscElement("p", {(0, 0): ONE})) == "1"


def test_mixed_tags_error():
    with pytest.raises(ValueError):
        X * disc_generator("q")
    with pytest.raises(ValueError):
        X + disc_generator("q")
    with pytest.raises(ValueError):
        DiscElement("r", {})


def test_disc_associativity():
    rng = random.Random(2)
    for _ in range(40):
        els = []
        for _ in range(3):
            terms = {(rng.randint(-2, 2), rng.randint(0, 2)):
                     ONE + P * rng.randint(-1, 1)}
            els.append(DiscElement("p", terms))
        x, y, z = els
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("seed", range(3))
def test_disc_products_match_the_sphere_and_the_swap(seed):
    # the q-disc is the sphere's a side; the p-disc has the q-disc's keys
    # and its coefficients with p and q exchanged
    rng = random.Random(300 + seed)
    points = [(Fraction(1, 2), Fraction(2, 7)),
              (Fraction(-3, 5), Fraction(4, 3))]
    for _ in range(30):
        t1, t2 = ((rng.randint(-5, 5), rng.randint(0, 3)) for _ in range(2))
        yq = DiscElement("q", {t1: ONE}) * DiscElement("q", {t2: ONE})
        yp = DiscElement("p", {t1: ONE}) * DiscElement("p", {t2: ONE})
        want = {(t.mu, t.m): c for t, c in _mono_mul(
            BasisMonomial(*t1, 0, 0), BasisMonomial(*t2, 0, 0))}
        assert yq.terms == want
        assert yp.terms.keys() == want.keys()
        for a, b in points:
            for key, c in want.items():
                assert yp.terms[key].evaluate(a, b) == c.evaluate(b, a)


def test_boundary_examples():
    assert boundary(X) == LaurentElement.u_power(1)
    assert boundary(W).is_zero()
    assert boundary(XS * X) == LaurentElement.one()


def test_chart_images_of_generators():
    a = AlgElement.generator("a")
    b = AlgElement.generator("b")
    assert chi(a, "p") == TrivializedElement("p", {((0, 0), 1): ONE})
    assert chi(a, "q") == TrivializedElement("q", {((1, 0), 1): ONE})
    assert chi(b, "p") == TrivializedElement("p", {((1, 0), -1): ONE})
    assert chi(b, "q") == TrivializedElement("q", {((0, 0), -1): ONE})
    with pytest.raises(ValueError):
        chi(a, "r")


def test_chart_image_of_the_base():
    f0 = iota_image("f0")
    xx = X * XS
    assert chi(f0, "p") == TrivializedElement(
        "p", {(t, 0): c for t, c in xx.terms.items()})
    assert chi(f0, "q") == TrivializedElement.one("q")
    assert chi(iota_image("f1"), "p") == TrivializedElement(
        "p", {((1, 0), 0): ONE})


def test_chart_maps_are_homomorphisms():
    rng = random.Random(4)
    for leg in ("p", "q"):
        for _ in range(25):
            x, y = random_element(rng), random_element(rng)
            assert chi(mul(x, y), leg) == chi(x, leg) * chi(y, leg)


def test_phi12_examples():
    assert phi12({(0, 1): ONE}) == {(-1, 1): ONE}
    assert phi12({(0, 0): ONE}) == {(0, 0): ONE}
    assert phi12({(1, 1): ONE}) == {(0, 1): ONE}


def test_gluing_on_generators_and_randoms():
    a = AlgElement.generator("a")
    b = AlgElement.generator("b")
    assert gluing_check(a)
    assert gluing_check(b)
    rng = random.Random(9)
    for _ in range(100):
        assert gluing_check(random_element(rng))


def _total_degree_monomials(degree):
    for mu, nu in itertools.product(range(-degree, degree + 1), repeat=2):
        rest = degree - abs(mu) - abs(nu)
        if rest < 0:
            continue
        yield BasisMonomial(mu, 0, 0, nu)
        for m in range(1, rest + 1):
            yield BasisMonomial(mu, m, 0, nu)
        for n in range(1, rest + 1):
            yield BasisMonomial(mu, 0, n, nu)


def test_gluing_on_basis_monomials_degree_six():
    count = 0
    for t in _total_degree_monomials(6):
        assert gluing_check(AlgElement.from_monomial(t)), t
        count += 1
    assert count == 377  # 13 + sum_s 4s(13 - 2s) pairs over |mu|+|nu| = s


def test_trivialization_colinearity():
    rng = random.Random(13)
    for leg in ("p", "q"):
        for _ in range(50):
            assert trivialization_colinear(random_element(rng), leg)


def test_trivializations_cover_the_base():
    rng = random.Random(17)
    for leg in ("p", "q"):
        for _ in range(50):
            assert trivialization_over_base(random_coinvariant(rng), leg)
    with pytest.raises(ValueError):
        trivialization_over_base(AlgElement.generator("a"), "p")


def test_boundary_tensor_drops_flags():
    t = TrivializedElement("p", {((2, 0), 1): ONE, ((0, 3), -1): Q})
    assert boundary_tensor(t) == {(2, 1): ONE}
