"""Strong connection: seeds, recursion, closed form, and identities."""

import sys

import pytest

from qhopf import galois
from qhopf.scalars import ONE, P, Q, qbinomial, qpow
from qhopf.galois import (TensorElement, check_connection_properties,
                          connection_seed, galois_witness, lifted_can,
                          multiply_legs, partition_identity_holds,
                          strong_connection, strong_connection_closed)
from qhopf.hopf import CotensorElement
from qhopf.s3core import AlgElement, BasisMonomial, UNIT_MONO, mul

A = AlgElement.generator("a")
AS = AlgElement.generator("a*")
B = AlgElement.generator("b")
BS = AlgElement.generator("b*")
ONE_EL = AlgElement.one()
BETA = ONE_EL - mul(A, AS)


def test_connection_seeds():
    assert strong_connection(0) == TensorElement.unit()
    # ell(u) = a* (x) a + q b(1-aa*) (x) b*
    want = TensorElement({
        (BasisMonomial(-1, 0, 0, 0), BasisMonomial(1, 0, 0, 0)): ONE,
        (BasisMonomial(0, 1, 0, 1), BasisMonomial(0, 0, 0, -1)): Q,
    })
    assert strong_connection(1) == want
    assert connection_seed("+") == want
    # ell(u*) = b* (x) b + p a(1-bb*) (x) a*
    want = TensorElement({
        (BasisMonomial(0, 0, 0, -1), BasisMonomial(0, 0, 0, 1)): ONE,
        (BasisMonomial(1, 0, 1, 0), BasisMonomial(-1, 0, 0, 0)): P,
    })
    assert strong_connection(-1) == want
    assert connection_seed("-") == want
    with pytest.raises(ValueError):
        connection_seed("0")


def test_closed_form_degree_two_frozen():
    # expanding the Gauss-binomial sum at n = 2 by hand:
    #   a*^2 (x) a^2 + (1+q) a*(1-aa*)b (x) ab* + q^2 (1-aa*)^2 b^2 (x) b*^2
    want = TensorElement({
        (BasisMonomial(-2, 0, 0, 0), BasisMonomial(2, 0, 0, 0)): ONE,
        (BasisMonomial(-1, 1, 0, 1), BasisMonomial(1, 0, 0, -1)): ONE + Q,
        (BasisMonomial(0, 2, 0, 2), BasisMonomial(0, 0, 0, -2)): Q * Q,
    })
    assert strong_connection_closed(2, "+") == want
    assert strong_connection(2) == want
    # the displayed middle coefficient (1+q) q comes with the flag on the
    # left of a*; commuting it inward absorbs one power of q
    displayed_mid = (ONE + Q) * Q * mul(mul(BETA, AS), B)
    assert displayed_mid == (ONE + Q) * AlgElement.from_monomial(
        BasisMonomial(-1, 1, 0, 1))


def test_recursion_equals_closed_form():
    for n in range(1, 9):
        assert strong_connection(n) == strong_connection_closed(n, "+")
        assert strong_connection(-n) == strong_connection_closed(n, "-")
    with pytest.raises(ValueError):
        strong_connection_closed(0, "+")
    with pytest.raises(ValueError):
        strong_connection_closed(2, "x")


def test_lifted_can_on_the_freeness_witnesses():
    # can(a*a (x) u + q bb*(1-aa*) (x) u) = 1 (x) u, written on the lift
    w_plus = TensorElement({
        (BasisMonomial(-1, 0, 0, 0), BasisMonomial(1, 0, 0, 0)): ONE,
        (BasisMonomial(0, 1, 0, 1), BasisMonomial(0, 0, 0, -1)): Q,
    })
    assert lifted_can(w_plus) == CotensorElement({(UNIT_MONO, 1): ONE})
    w_minus = strong_connection(-1)
    assert lifted_can(w_minus) == CotensorElement({(UNIT_MONO, -1): ONE})
    assert lifted_can(TensorElement.unit()) == \
        CotensorElement({(UNIT_MONO, 0): ONE})


def test_witness_tensor_matches_the_original_form():
    # the first seed leg is literally a* (x) a + q b b* (1-aa*) (x)_B u
    # rewritten on the plain tensor; check the equality of q b(1-aa*)
    # with q bb*(1-aa*) b ... i.e. the two published spellings agree
    lhs = Q * mul(mul(B, BS), BETA)  # q bb*(1-aa*)
    rhs = Q * BETA                    # collapses by the annihilation rule
    assert lhs == rhs


def test_multiply_legs_partition_identity_k1():
    # a*a + q b(1-aa*)b* = 1
    total = mul(AS, A) + Q * mul(mul(B, BETA), BS)
    assert total == ONE_EL
    assert multiply_legs(strong_connection(1)) == ONE_EL


def test_partition_identities():
    for n in range(1, 9):
        assert partition_identity_holds(n, "+")
        assert partition_identity_holds(n, "-")


def test_connection_properties_report():
    rep = check_connection_properties(8)
    assert rep["pass"]
    assert not rep["failures"]
    assert len(rep["checks"]) == 17
    with pytest.raises(ValueError):
        check_connection_properties(0)


def test_per_term_windings():
    for k in range(-8, 9):
        for (s, t) in strong_connection(k).terms:
            assert s.winding == -k
            assert t.winding == k
            assert s.winding + t.winding == 0


def test_galois_witnesses():
    for k in list(range(1, 7)) + [-k for k in range(1, 7)]:
        w = galois_witness(k)
        assert lifted_can(w) == CotensorElement({(UNIT_MONO, k): ONE})
        assert w == strong_connection(k)
    assert galois_witness(0) == TensorElement.unit()


def test_closed_form_coefficients_are_gauss_binomials():
    ell = strong_connection_closed(4, "+")
    # the k = 4 term is a*^4 (x) a^4 with coefficient 1, the k = 0 term
    # carries q^4, and the middle ones carry the binomials
    got = ell.terms[(BasisMonomial(-2, 2, 0, 2), BasisMonomial(2, 0, 0, -2))]
    assert got == qbinomial(4, 2) * qpow(2) * qpow(-4)


def test_json_and_text_render():
    ell = strong_connection(1)
    js = ell.json_terms()
    assert js[0]["left"] == {"mu": -1, "m": 0, "n": 0, "nu": 0}
    assert js[0]["coeff"] == "1"
    assert "(x)" in ell.text()


def test_strong_connection_stack_depth_is_bounded(monkeypatch):
    monkeypatch.setattr(galois, "_CONN_CACHE", {})
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        plus, minus = strong_connection(40), strong_connection(-40)
    finally:
        sys.setrecursionlimit(limit)
    assert plus == strong_connection_closed(40, "+")
    assert minus == strong_connection_closed(40, "-")
    # the cache was filled on the way up; a smaller power is a cache hit
    assert galois._CONN_CACHE[39] is strong_connection(39)
