"""Expression parser, evaluator, and print round-trips."""

import json
import random

import pytest

from qhopf import exprs
from qhopf.exprs import (MAX_DEGREE, MAX_NESTING, MAX_PARAM_DEGREE, Div,
                         ExprError, Mul, Num, Pow, Star, Sub, Sym, evaluate,
                         evaluate_algebra, evaluate_scalar, parse)
from qhopf.scalars import ONE, P, Q, scalar
from qhopf.hopf import LaurentElement
from qhopf.s3core import AlgElement, BasisMonomial, mul
from qhopf.verify import random_element


def test_parse_shapes():
    assert parse("a^* * a") == Mul(Star(Sym("a")), Sym("a"))
    assert parse("(1 - a*a^*)^2") == \
        Pow(Sub(Num(1), Mul(Sym("a"), Star(Sym("a")))), 2)
    assert parse("1/2") == Div(Num(1), Num(2))
    assert parse("u^-3") == Pow(Sym("u"), -3)
    assert parse("a^*^2") == Pow(Star(Sym("a")), 2)


def test_parse_errors_carry_positions():
    with pytest.raises(ExprError) as err:
        parse("a + * b")
    assert "position 4" in str(err.value)
    with pytest.raises(ExprError):
        parse("a +")
    with pytest.raises(ExprError):
        parse("(a")
    with pytest.raises(ExprError):
        parse("a $ b")
    with pytest.raises(ExprError):
        parse("zz + 1")
    with pytest.raises(ExprError):
        parse("a ^ q")


def test_evaluate_connection_leg():
    got = evaluate("q * b * (1 - a * a^*)")
    want = Q * AlgElement.from_monomial(BasisMonomial(0, 1, 0, 1))
    assert got == want


def test_evaluate_scalars_and_promotions():
    assert evaluate_scalar("1/2 + p*q") == scalar(1) / 2 + P * Q
    x = evaluate_algebra("1 - a*a^*")
    assert x == AlgElement.one() - mul(AlgElement.generator("a"),
                                       AlgElement.generator("a*"))
    # scalar-valued input lands on a multiple of the unit
    assert evaluate_algebra("p") == AlgElement.one().scale(P)


def test_evaluate_base_generators_route_through_embedding():
    from qhopf.s3core import iota_image
    assert evaluate("f0") == iota_image("f0")
    got = evaluate("f1^* * f1 - q * f1 * f1^* - (p - q) * f0 - (1 - p)")
    assert got.is_zero()


def test_family_mixing_is_rejected():
    with pytest.raises(ExprError):
        evaluate("f0 + a")
    with pytest.raises(ExprError):
        evaluate("u * a")
    with pytest.raises(ExprError):
        evaluate("f1 * u")


def test_negative_powers_only_on_circle_monomials():
    assert evaluate("u^-3") == LaurentElement.u_power(-3)
    assert evaluate("(2 * u)^-1") == LaurentElement({-1: scalar(1) / 2})
    for bad in ("a^-1", "p^-2", "(u + 1)^-1"):
        with pytest.raises(ExprError):
            evaluate(bad)


def test_division_rules():
    assert evaluate_scalar("(1 - q^2)/(1 - q)") == ONE + Q
    got = evaluate("a / 2")
    assert got == AlgElement.generator("a").scale(scalar(1) / 2)
    with pytest.raises(ExprError):
        evaluate("1 / a")
    with pytest.raises(ZeroDivisionError):
        evaluate("1 / (1 - 1)")


def test_star_evaluation():
    assert evaluate("a^*") == AlgElement.generator("a*")
    assert evaluate("u^*") == LaurentElement.u_power(-1)
    assert evaluate_scalar("p^*") == P
    assert evaluate("(a * b)^*") == mul(AlgElement.generator("b*"),
                                        AlgElement.generator("a*"))


def test_print_parse_round_trip_on_random_elements():
    rng = random.Random(47)
    for _ in range(60):
        x = random_element(rng)
        assert evaluate_algebra(x.text()) == x
    # scalar canonical forms round-trip too
    samples = [ONE / (ONE - Q), (ONE - Q * Q) / (ONE - P),
               -(ONE / (ONE - P * P)), scalar(3) / 2 * P * Q - ONE]
    for s in samples:
        assert evaluate_scalar(str(s)) == s


def test_round_trip_is_a_fixpoint():
    rng = random.Random(53)
    for _ in range(30):
        x = random_element(rng)
        text = x.text()
        assert evaluate_algebra(text).text() == text


NESTED_SHAPES = {
    "parentheses": lambda k: "(" * k + "a" + ")" * k,
    "unary minus": lambda k: "-" * k + "a",
    "postfix": lambda k: "a" + "^*" * k,
    "mixed": lambda k: "(" * (k // 2) + "-" * (k // 4) + "a"
    + "^*" * (k - k // 2 - k // 4) + ")" * (k // 2),
    "postfix outside": lambda k: "(" * (k // 2) + "a" + ")" * (k // 2)
    + "^1" * (k - k // 2),
}


@pytest.mark.parametrize("shape", NESTED_SHAPES.values(),
                         ids=NESTED_SHAPES.keys())
def test_nesting_budget(shape):
    # just inside the budget the expression evaluates; one level more is
    # an ExprError raised by the parser, before any evaluation
    assert not evaluate_algebra(shape(MAX_NESTING)).is_zero()
    with pytest.raises(ExprError, match="nests deeper"):
        parse(shape(MAX_NESTING + 1))
    for k in (2000, 3000):
        with pytest.raises(ExprError, match="nests deeper"):
            parse(shape(k))


def test_nesting_counts_every_enclosing_level():
    # a sits inside two parentheses and two ^* here
    depth = MAX_NESTING - 4
    text = "(" * depth + "((a^*))^*" + ")" * depth
    assert evaluate_algebra(text) == AlgElement.generator("a")
    with pytest.raises(ExprError):
        parse("(" + text + ")")


def test_long_sums_and_products_cost_no_depth():
    n = 3000
    assert evaluate_algebra(" + ".join(["a"] * n)) == \
        AlgElement.generator("a").scale(n)
    assert evaluate_algebra(" - ".join(["b"] * n)) == \
        AlgElement.generator("b").scale(2 - n)
    assert evaluate_algebra(" ".join(["a"] * n)) == \
        AlgElement.from_monomial(BasisMonomial(n, 0, 0, 0))
    assert evaluate("*".join(["u"] * n)) == LaurentElement.u_power(n)


def test_degree_budget_rejects_before_evaluating(monkeypatch):
    # the long products above fit the budget with room to spare
    assert MAX_DEGREE >= 3000
    assert exprs._degree(parse(" ".join(["a"] * 3000))) == 3000
    assert exprs._degree(parse("(a + b^*)^3 * (1 - a a^*) / (1 - p)")) == 5
    assert exprs._degree(parse("u^-4 + q^7")) == 4
    assert exprs._degree(parse("a" + "^2" * 30)) == 2 ** 30

    def never(node):
        raise AssertionError("evaluated an expression beyond the budget")

    monkeypatch.setattr(exprs, "_eval", never)
    for text in ("a^1000000000", "a" + "^2" * 30,
                 f"b^{MAX_DEGREE + 1}", f"(a b)^{MAX_DEGREE // 2 + 1}"):
        with pytest.raises(ExprError, match="degree"):
            evaluate_algebra(text)


def test_parameter_degree_budget_rejects_scalar_powers(monkeypatch, capsys):
    # scalar powers have letter degree 0; the parameter degree sees them
    from qhopf import cli
    assert exprs._degree(parse("p^100000")) == 0
    assert exprs._degree(parse("2^100000"), exprs._params) == 200000
    assert exprs._degree(parse("(1 + p + q)^3 * a / (1 - 5*q)"),
                         exprs._params) == 7
    assert exprs._degree(parse(f"(1 + p + q)^{MAX_PARAM_DEGREE}"),
                         exprs._params) == MAX_PARAM_DEGREE

    def never(node):
        raise AssertionError("evaluated an expression beyond the budget")

    monkeypatch.setattr(exprs, "_eval", never)
    for text in ("p^100000", "2^100000", "(1+p+q)^100000",
                 f"q^{MAX_PARAM_DEGREE + 1}"):
        with pytest.raises(ExprError, match="parameter degree"):
            evaluate(text)
        assert cli.main(["normalize", text]) == 2
        assert "parameter degree" in json.loads(capsys.readouterr().err)[
            "error"]


def test_degree_budget_exits_2_on_the_command_line(monkeypatch, capsys):
    from qhopf import cli

    def never(node):
        raise AssertionError("evaluated an expression beyond the budget")

    monkeypatch.setattr(exprs, "_eval", never)
    assert cli.main(["normalize", "a^1000000000"]) == 2
    assert "degree" in capsys.readouterr().err
