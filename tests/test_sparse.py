"""The shared linear-combination core: values stay values, keys are checked."""

import copy
import itertools
import pickle
from functools import partial
from types import MappingProxyType

import pytest

from qhopf import galois, s3core
from qhopf.chern import idempotent
from qhopf.galois import TensorElement, strong_connection
from qhopf.gluing import DiscElement, TrivializedElement
from qhopf.hopf import CotensorElement, LaurentElement
from qhopf.s3core import UNIT_MONO, AlgElement, BasisMonomial, iota_image
from qhopf.scalars import ONE, P, Q
from qhopf.sparse import SparseElement, accumulate, bilinear, extend

A1 = BasisMonomial(1, 0, 0, 0)


def samples():
    return [
        AlgElement({A1: Q}),
        LaurentElement({2: P}),
        CotensorElement({(A1, 1): ONE}),
        TensorElement({(A1, UNIT_MONO): Q}),
        DiscElement("p", {(1, 0): ONE}),
        TrivializedElement("q", {((1, 0), 1): ONE}),
        idempotent(-1),
    ]


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_every_element_class_is_a_read_only_value(x):
    assert isinstance(x, SparseElement)
    before = dict(x.terms)
    with pytest.raises(AttributeError):
        x.terms.clear()
    with pytest.raises(TypeError):
        x.terms[next(iter(before))] = ONE
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        x._d = {}
    with pytest.raises(AttributeError):
        x.tag = "p"
    assert dict(x.terms) == before


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_shared_arithmetic(x):
    assert x - x == x.scale(0) and not (x - x) and (x - x).is_zero()
    assert x + x == x.scale(2) == 2 * x == x * 2
    assert -x == x.scale(-1) and -(-x) == x
    assert hash(x + x) == hash(x.scale(2))
    assert len({x, x.scale(1), -(-x)}) == 1
    assert repr(x).startswith(f"{type(x).__name__}(")
    with pytest.raises(TypeError):
        x + 1


VALUES = {
    "laurent scalar": P * Q - 3 / P,
    "field scalar": (ONE + P) / (ONE - Q) + Q,
    "AlgElement": AlgElement({A1: ONE / (ONE - P), UNIT_MONO: Q}),
    "TensorElement": strong_connection(2),
    "DiscElement": DiscElement("q", {(1, 0): P}),
    "CoinvariantMatrix": idempotent(2),
}


@pytest.mark.parametrize("x", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_values_copy_and_pickle(x, how):
    y = how(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x)
    assert getattr(y, "tag", None) == getattr(x, "tag", None)
    assert str(y) == str(x)


def test_cached_values_cannot_be_changed_through_a_reference():
    # the connection cache and the base embedding hand out shared values;
    # writing into them must fail and leave them intact
    ell = strong_connection(1)
    want = dict(ell.terms)
    for shared in (ell, iota_image("f0")):
        with pytest.raises(AttributeError):
            shared.terms.clear()
        with pytest.raises(AttributeError):
            shared.terms.pop(next(iter(shared.terms)))
    assert dict(strong_connection(1).terms) == want
    assert strong_connection(1) == galois.strong_connection_closed(1, "+")
    assert iota_image("f0") == AlgElement.one() - AlgElement(
        {BasisMonomial(0, 0, 1, 0): ONE})


@pytest.mark.parametrize("bad", [
    BasisMonomial(0, 1, 1, 0),      # (1-aa*)(1-bb*) = 0
    BasisMonomial(2, 1, 3, -1),
    BasisMonomial(0, -1, 0, 0),     # negative flag exponent
    BasisMonomial(0, 0, -2, 1),
    BasisMonomial(0.5, 0, 0, 0),    # non-integer index
    BasisMonomial(1, 0, 0, True),
    (1, 0, 0),                      # not four indices
])
def test_public_constructors_reject_invalid_monomials(bad):
    with pytest.raises(ValueError):
        AlgElement({bad: ONE})
    with pytest.raises(ValueError):
        AlgElement.from_monomial(bad)
    with pytest.raises(ValueError):
        CotensorElement({(bad, 0): ONE})
    with pytest.raises(ValueError):
        TensorElement({(UNIT_MONO, bad): ONE})
    with pytest.raises(ValueError):
        TensorElement({(bad, UNIT_MONO): ONE})


def test_valid_keys_are_normalized():
    x = AlgElement({(1, 0, 2, -1): ONE})
    (t,) = x.terms
    assert type(t) is BasisMonomial and t == (1, 0, 2, -1)
    for power in (1.5, "1", None):
        with pytest.raises(ValueError):
            LaurentElement({power: ONE})
        with pytest.raises(ValueError):
            CotensorElement({(A1, power): ONE})
        with pytest.raises(ValueError):
            TrivializedElement("p", {((0, 0), power): ONE})
    # zero coefficients never enter a value
    assert AlgElement({A1: 0}).is_zero()
    assert not LaurentElement({3: ONE - ONE})


def test_mixed_disc_tags_raise_in_every_operation():
    xp = DiscElement("p", {(1, 0): ONE})
    xq = DiscElement("q", {(1, 0): ONE})
    for op in (lambda: xp + xq, lambda: xp - xq, lambda: xp * xq):
        with pytest.raises(ValueError):
            op()
    assert xp != xq
    tp = TrivializedElement.one("p")
    with pytest.raises(ValueError):
        tp * TrivializedElement.one("q")


def test_tensor_has_no_product():
    t = TensorElement.unit()
    with pytest.raises(TypeError):
        t * t


def test_accumulate_extend_bilinear():
    out = accumulate({"x": ONE}, [(ONE, [("x", -ONE), ("y", Q)])])
    assert out == {"y": Q}
    out = accumulate({"y": Q}, [(P, [("y", ONE)])], subtract=True)
    assert out == {"y": Q - P}
    doubled = extend({1: Q, 2: P}, lambda k: ((k % 2, ONE), (k, ONE)))
    assert doubled == {1: Q + Q, 0: P, 2: P}
    prod = bilinear({1: Q}, {2: P, -1: ONE}, lambda j, k: ((j + k, ONE),))
    assert prod == {3: Q * P, 0: Q}


@pytest.mark.parametrize("c", [ONE, P, -Q / 2])
def test_extend_of_one_term_is_its_scaled_image(c):
    # one term has nothing to sum: the result is what accumulate gives,
    # in the same key order, for every letter rule on both sides
    monos = [BasisMonomial(*k) for k in itertools.product(
        (-2, -1, 0, 1, 2), (0, 1), (0, 1), (-2, -1, 0, 1, 2))]
    letters = s3core._LETTER_MONO.values()
    rules = ([partial(s3core._mono_mul, t2=t) for t in letters]
             + [partial(s3core._mono_mul, t) for t in letters])
    for rule in rules:
        for t in monos:
            got, want = extend({t: c}, rule), accumulate({}, [(c, rule(t))])
            assert got == want and list(got) == list(want)
    assert extend({1: c}, lambda k: ()) == {}
    image = extend(MappingProxyType({1: c}), lambda k: ((k, ONE), (-k, Q)))
    assert image == {1: c, -1: c * Q}


@pytest.mark.parametrize("bad", [(0, -1), (0.5, 0), (1, 0, 0)])
def test_disc_keys_are_checked(bad):
    # a disc monomial x_mu (1 - x x*)^m is the sphere monomial (mu, m, 0, 0)
    with pytest.raises(ValueError):
        DiscElement("p", {bad: ONE})
    with pytest.raises(ValueError):
        TrivializedElement("q", {(bad, 0): ONE})
