"""Strong connection: seeds, recursion, closed form, and identities."""

import json
import signal
import sys

import pytest

from qhopf import galois
from qhopf.scalars import ONE, P, Q, qbinomial, qpow
from qhopf.cli import main
from qhopf.galois import (TensorElement, connection_defects, lifted_can,
                          multiply_legs, strong_connection,
                          strong_connection_closed)
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
    # ell(u*) = b* (x) b + p a(1-bb*) (x) a*
    want = TensorElement({
        (BasisMonomial(0, 0, 0, -1), BasisMonomial(0, 0, 0, 1)): ONE,
        (BasisMonomial(1, 0, 1, 0), BasisMonomial(-1, 0, 0, 0)): P,
    })
    assert strong_connection(-1) == want


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
    # the sandwich recursion from the seeds, walked from the unit, is the
    # definition that the closed form serves
    for sign, seed in (("+", galois._SEED_PLUS), ("-", galois._SEED_MINUS)):
        ell = TensorElement.unit()
        for n in range(1, 9):
            ell = galois._sandwich(seed, ell)
            assert strong_connection(n if sign == "+" else -n) == ell
            assert strong_connection_closed(n, sign) == ell
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
        assert multiply_legs(strong_connection_closed(n, "+")) == ONE_EL
        assert multiply_legs(strong_connection_closed(n, "-")) == ONE_EL


def test_connection_properties_report():
    for k in range(-8, 9):
        assert connection_defects(strong_connection(k), k) == {}
    # q 1 (x) a breaks three identities, and each reports its difference
    stray = TensorElement({(UNIT_MONO, BasisMonomial(1, 0, 0, 0)): Q})
    assert connection_defects(strong_connection(1) + stray, 1) == {
        "lifted_can": "(q*a) (x) u",
        "left_colinearity": "winding mismatch in left leg",
        "counit_law": "q*a"}


# two tensors whose products cancel in lifted_can and in multiply_legs,
# added to ell(u): the first has right legs in winding 2 and left legs
# in winding -1, the second left legs in winding 0 and right legs in 1
_STRAY_LEGS = {
    "right_colinearity": {
        (BasisMonomial(0, 0, 0, 1), BasisMonomial(3, 0, 0, 1)): ONE,
        (BasisMonomial(1, 0, 0, 2), BasisMonomial(2, 0, 0, 0)): -ONE,
    },
    "left_colinearity": {
        (BasisMonomial(1, 0, 0, 1), BasisMonomial(1, 0, 0, 0)): ONE,
        (BasisMonomial(0, 0, 0, 0), BasisMonomial(2, 0, 0, 1)): -ONE,
    },
}


@pytest.mark.parametrize("identity", sorted(_STRAY_LEGS))
def test_connection_properties_report_a_stray_winding(identity):
    stray = TensorElement(_STRAY_LEGS[identity])
    assert lifted_can(stray).is_zero() and multiply_legs(stray).is_zero()
    leg = identity.split("_")[0]
    assert connection_defects(strong_connection(1) + stray, 1) == \
        {identity: f"winding mismatch in {leg} leg"}


@pytest.mark.parametrize("identity", sorted(_STRAY_LEGS))
def test_verify_reports_a_failed_identity(monkeypatch, capsys, identity):
    # a stray leg at k = 1 fails the recursion check and its identity
    # check, which both carry k and the difference; verify exits 1
    stray = TensorElement(_STRAY_LEGS[identity])
    real = galois.strong_connection
    monkeypatch.setattr(galois, "strong_connection",
                        lambda k: real(k) + stray if k == 1 else real(k))
    assert main(["verify", "galois"]) == 1
    report = json.loads(capsys.readouterr().out)
    name = f"connection identity: {identity}"
    recursion = "recursion equals closed form (positive powers)"
    assert report["failures"] == [recursion, name]
    checks = {c["check_name"]: c for c in report["reports"][0]["checks"]}
    assert checks[recursion]["failures"] == [
        {"k": 1, "difference": stray.text()}]
    leg = identity.split("_")[0]
    assert checks[name]["failures"] == [
        {"k": 1, "difference": f"winding mismatch in {leg} leg"}]
    # legs that multiply to 1 + a fail every partition identity, and the
    # first failure names its power and side
    multiply = galois.multiply_legs
    monkeypatch.setattr(galois, "multiply_legs",
                        lambda t: multiply(t) + AlgElement.generator("a"))
    assert main(["verify", "galois"]) == 1
    checks = {c["check_name"]: c for c in json.loads(
        capsys.readouterr().out)["reports"][0]["checks"]}
    partition = checks["partition identities (both parameter sides)"]
    assert len(partition["failures"]) == 16
    assert partition["failures"][0] == {"k": 1, "side": "+",
                                        "difference": "a"}


def test_verify_compares_each_served_value_with_the_recursion(monkeypatch,
                                                              capsys):
    # a served value doubled at k = 5 fails the recursion check at k = 5
    # alone, with the served value minus the recursion as its difference:
    # the recursion is walked from the seeds, so k = 6 does not inherit it
    real = galois.strong_connection
    monkeypatch.setattr(galois, "strong_connection",
                        lambda k: real(k) + real(k) if k == 5 else real(k))
    assert main(["verify", "galois"]) == 1
    checks = {c["check_name"]: c for c in json.loads(
        capsys.readouterr().out)["reports"][0]["checks"]}
    assert checks["recursion equals closed form (positive powers)"][
        "failures"] == [{"k": 5, "difference": real(5).text()}]
    assert checks["recursion equals closed form (negative powers)"]["pass"]


def test_per_term_windings():
    for k in range(-8, 9):
        for (s, t) in strong_connection(k).terms:
            assert s.winding == -k
            assert t.winding == k
            assert s.winding + t.winding == 0


def test_galois_witnesses():
    # the connection value is the preimage of 1 (x) u^k
    for k in range(-6, 7):
        w = strong_connection(k)
        assert lifted_can(w) == CotensorElement({(UNIT_MONO, k): ONE})


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


def test_strong_connection_stack_depth_is_bounded():
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


def test_strong_connection_rejects_a_non_integer_power():
    # a fractional power is rejected before any work; the alarm turns a
    # hang into a failure
    def hang(signum, frame):
        raise TimeoutError("no answer for a fractional power")
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError):
            strong_connection(0.5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call, arg", [
    (strong_connection_closed, 2.0),
    pytest.param(lambda k: connection_defects(strong_connection(1), k), 1.5,
                 id="connection_defects-1.5")])
def test_a_non_integer_power_is_a_value_error(call, arg):
    with pytest.raises(ValueError, match="integer"):
        call(arg)


def test_one_shot_leg_products_leave_the_monomial_memo_alone(monkeypatch):
    # the connection recursion, the lifted canonical map and the leg
    # products multiply monomial pairs that never recur, so they skip
    # the product memo
    from qhopf import s3core
    monkeypatch.setattr(s3core, "_MONO_MUL_CACHE", {})
    for k in (7, -7, 3):
        ell = strong_connection(k)
        assert lifted_can(ell) == CotensorElement({(UNIT_MONO, k): ONE})
        assert multiply_legs(ell) == AlgElement.one()
    assert galois._sandwich(galois._SEED_PLUS, ell) == strong_connection(4)
    assert s3core._MONO_MUL_CACHE == {}
