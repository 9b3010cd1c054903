"""Expression parser, evaluator, and print round-trips."""

import json
import random

import pytest

from qhopf import exprs
from qhopf.exprs import (MAX_DEGREE, MAX_NESTING, MAX_PARAM_DEGREE, Add, Div,
                         ExprError, Mul, Neg, Num, Pow, Star, Sub, Sym,
                         evaluate, evaluate_algebra, evaluate_scalar, parse)
from qhopf.scalars import ONE, P, Q, ParamScalar, scalar
from qhopf.hopf import LaurentElement
from qhopf.s3core import AlgElement, BasisMonomial, iota_image, mul
from qhopf.verify import random_element


def test_parse_shapes():
    assert parse("a^* * a") == Mul(Star(Sym("a")), Sym("a"))
    assert parse("(1 - a*a^*)^2") == \
        Pow(Sub(Num(1), Mul(Sym("a"), Star(Sym("a")))), 2)
    # the parser's one-step flag gives the general path's node
    assert parse("(1 - a a^*)") == Sub(Num(1), Mul(Sym("a"), Star(Sym("a"))))
    assert parse("( 1 - b * b ^ * )") == \
        Sub(Num(1), Mul(Sym("b"), Star(Sym("b"))))
    assert parse("(1-b*b^*)^2") == \
        Pow(Sub(Num(1), Mul(Sym("b"), Star(Sym("b")))), 2)
    assert parse("1/2") == Div(Num(1), Num(2))
    assert parse("u^-3") == Pow(Sym("u"), -3)
    assert parse("a^*^2") == Pow(Star(Sym("a")), 2)


def test_nodes_are_values():
    x, y = Sym("x"), Sym("y")
    assert Mul(x, y) == Mul(Sym("x"), Sym("y"))
    # nodes of different classes with equal fields differ
    assert Mul(x, y) != Div(x, y) and not Mul(x, y) == Div(x, y)
    assert Add(x, y) != Sub(x, y) and Neg(x) != Star(x)
    assert Num(1) != Sym(1) and Num(1) != 1
    texts = ["a^* * a", "(1 - a*a^*)^2", "1/2", "2/1", "u^-3", "-a", "a^*",
             "a - b", "a + b", "p q"]
    nodes, again = [parse(t) for t in texts], [parse(t) for t in texts]
    for n, m in zip(nodes, again):
        assert n == m and hash(n) == hash(m) and n is not m
    assert len(set(nodes)) == len(set(nodes + again)) == len(texts)
    table = {n: t for t, n in zip(texts, nodes)}
    assert [table[m] for m in again] == texts
    node = parse("a - 2")
    for name in ("left", "right"):
        with pytest.raises(AttributeError):
            setattr(node, name, Num(3))
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node == Sub(Sym("a"), Num(2)) and node.right.value == 2
    assert Pow(base=Sym("a"), exponent=2) == parse("a^2")
    assert Sub(Sym("a"), right=Num(value=2)) == node
    with pytest.raises(TypeError):
        Add(Sym("a"))
    assert repr(parse("(1 - a*a^*)^2 / p + -b^* - u^-3")) == (
        "Sub(left=Add(left=Div(left=Pow(base=Sub(left=Num(value=1), "
        "right=Mul(left=Sym(name='a'), right=Star(arg=Sym(name='a')))), "
        "exponent=2), right=Sym(name='p')), right=Neg(arg=Star(arg=Sym("
        "name='b')))), right=Pow(base=Sym(name='u'), exponent=-3))")


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


def _letter_degree(text):
    return exprs._parse(text)[2]


def _param_degree(text):
    return exprs._parse(text)[3]


def test_degree_budget_rejects_before_evaluating(monkeypatch):
    # the long products above fit the budget with room to spare
    assert MAX_DEGREE >= 3000
    assert _letter_degree(" ".join(["a"] * 3000)) == 3000
    assert _letter_degree("(a + b^*)^3 * (1 - a a^*) / (1 - p)") == 5
    assert _letter_degree("u^-4 + q^7") == 4
    assert _letter_degree("a" + "^2" * 30) == 2 ** 30

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
    assert _letter_degree("p^100000") == 0
    assert _param_degree("2^100000") == 200000
    assert _param_degree("(1 + p + q)^3 * a / (1 - 5*q)") == 7
    assert _param_degree(f"(1 + p + q)^{MAX_PARAM_DEGREE}") == \
        MAX_PARAM_DEGREE

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


# ---------------------------------------------------------------------------
# the evaluator against a reference fold with generic element products
# ---------------------------------------------------------------------------

def reference_eval(node):
    # every node through the generic operations: products are element
    # products, powers repeated products, sums lift scalars onto the unit
    kind = type(node).__name__
    if kind == "Num":
        return scalar(node.value)
    if kind == "Sym":
        fixed = {"p": P, "q": Q, "u": LaurentElement.u_power(1)}
        if node.name in fixed:
            return fixed[node.name]
        if node.name in ("a", "b"):
            return AlgElement.generator(node.name)
        return iota_image(node.name)
    if kind == "Neg":
        return -reference_eval(node.arg)
    if kind == "Star":
        val = reference_eval(node.arg)
        return val if isinstance(val, ParamScalar) else val.star()
    if kind == "Pow":
        base = reference_eval(node.base)
        if node.exponent < 0:
            (j, c), = base.terms.items()
            base = LaurentElement({-j: ONE / c})
        out = ONE if isinstance(base, ParamScalar) else base.one()
        for _ in range(abs(node.exponent)):
            out = out * base
        return out
    x, y = reference_eval(node.left), reference_eval(node.right)
    if kind in ("Add", "Sub"):
        if isinstance(x, ParamScalar) and not isinstance(y, ParamScalar):
            x = y.one().scale(x)
        if isinstance(y, ParamScalar) and not isinstance(x, ParamScalar):
            y = x.one().scale(y)
        return x + y if kind == "Add" else x - y
    return x * y if kind == "Mul" else x * (ONE / y)


def random_coeff_text(rng):
    bits = []
    for _ in range(rng.randint(1, 3)):
        c, i, j = rng.randint(-4, 5), rng.randint(0, 2), rng.randint(0, 2)
        mono = "*".join(s for s in ("p" if i == 1 else f"p^{i}" if i else "",
                                    "q" if j == 1 else f"q^{j}" if j else "")
                        if s)
        bits.append(f"{c}*{mono}" if mono else str(c))
    return "(" + " + ".join(bits) + ")"


def random_monomial(rng, reach=3, flag=3):
    m = rng.randint(0, flag)
    n = 0 if m else rng.randint(0, flag)
    return BasisMonomial(rng.randint(-reach, reach), m, n,
                         rng.randint(-reach, reach))


def workload_monomial_text(t):
    # the '*'-separated spelling of a benchmark item: a^2*(1 - a*a^*)*b^*
    def power(base, k):
        return base if k == 1 else f"{base}^{k}"
    parts = []
    if t.mu:
        parts.append(power("a" if t.mu > 0 else "a^*", abs(t.mu)))
    if t.m:
        parts.append(power("(1 - a*a^*)", t.m))
    if t.n:
        parts.append(power("(1 - b*b^*)", t.n))
    if t.nu:
        parts.append(power("b" if t.nu > 0 else "b^*", abs(t.nu)))
    return "*".join(parts) or "1"


def random_expression(rng):
    mono = random_monomial(rng)
    shapes = [
        lambda: mono.text(),
        lambda: " + ".join(f"{random_coeff_text(rng)}*"
                           f"{workload_monomial_text(random_monomial(rng))}"
                           for _ in range(rng.randint(1, 3))),
        lambda: f"({mono.text()})^*",
        lambda: f"(a^*^2 (1 - b b^*) + {random_coeff_text(rng)} b^2)^*",
        lambda: rng.choice(["a", "a^*", "b", "b^*", "(1 - a a^*)",
                            "(1 - b*b^*)"]) + "^2" * rng.randint(0, 2)
        + "^0" * (rng.random() < 0.2) + f" {mono.text()}",
        lambda: rng.choice(["(1 - a b^*)", "(1 - b*a^*)", "(2 - a a^*)",
                            "(1 - a^* a)", "(1 + b b^*)", "(1 - b b)"])
        + f"^{rng.randint(0, 2)} {mono.text()}",
        lambda: f"(1 - a*a^*)^{rng.randint(0, 3)} * {random_coeff_text(rng)}"
                f" * (1 - b b^*) + {random_coeff_text(rng)} (1 - b*b^*)^2"
                f" / {rng.randint(1, 5)}",
        lambda: f"{random_coeff_text(rng)} (1 - a a^*) a^2 (a + b^*)"
                f" a^* {mono.text()} - b^3 (1 - 1) a",
        lambda: f"-a^*^{rng.randint(0, 3)} b (p - q)^2 * 0 + a b^* a^*",
        lambda: f"u^{rng.randint(-3, 3)} * {random_coeff_text(rng)}"
                f" * u^* + (2*u)^-{rng.randint(1, 3)} - u^2^2",
        lambda: f"f1^* * f1 - q * f1 f1^* + {random_coeff_text(rng)}"
                f" * f0^{rng.randint(0, 3)} - (f0 + 2) f1^2",
        lambda: f"{random_coeff_text(rng)}^2 / (1 - p*q) + q^*",
    ]
    return rng.choice(shapes)()


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_the_generic_reference_fold(seed):
    rng = random.Random(900 + seed)
    for _ in range(60):
        text = random_expression(rng)
        got, want = evaluate(text), reference_eval(parse(text))
        assert type(got) is type(want) and got == want, text
    for _ in range(30):
        t = random_monomial(rng, reach=5)
        assert evaluate_algebra(t.text()) == AlgElement.from_monomial(t)
        assert evaluate_algebra(workload_monomial_text(t)) == \
            AlgElement.from_monomial(t)


FOLD_EDGES = {
    "0*a": True,
    "(0*q)*a^*^3*(1 - a*a^*)^3": True,
    "(1 - a*a^*)*(1 - b*b^*)": True,
    "a^* a^2": False,
    "b b^*": False,
    "(a + b)*a^*^2": False,
    # words out of the order a_mu, one flag, b_nu
    "b a": False,
    "(1 - b b^*) a": False,
    "b^* (1 - a a^*)": False,
    "a^* a (1 - a a^*)": False,
    "(1 - a a^*) (1 - b b^*) b": True,
    "a^2 a^*": False,
}


@pytest.mark.parametrize("text", FOLD_EDGES)
def test_letter_folds_at_the_edges(text):
    # zero scalars, a vanishing flag product, two-term rules and a
    # many-term value against the generic reference fold
    got, want = evaluate(text), reference_eval(parse(text))
    assert type(got) is type(want) is AlgElement and got == want
    assert got.is_zero() is FOLD_EDGES[text]
    assert all(got.terms.values())


@pytest.mark.parametrize("text", ["(a + b)*a^0", "(a + b)^0*b^0", "a^0 b",
                                  "(a + b)*(a^0)^3*b", "a^* a (b^*)^0"])
def test_every_built_element_owns_its_terms(text, monkeypatch):
    # a zero power after a value must not hand that value's term dict to
    # a second element
    seen = []
    raw = AlgElement._raw.__func__

    def owning_raw(cls, d, tag=None):
        assert all(d is not s for s in seen)
        seen.append(d)
        return raw(cls, d, tag)

    monkeypatch.setattr(AlgElement, "_raw", classmethod(owning_raw))
    assert evaluate(text) == reference_eval(parse(text))
    assert seen


def reference_budget(node, fams):
    # (fams, letter degree, parameter degree) of an AST in one walk, by the
    # rules of the exprs docstring; the node's families are added to fams
    binary = (Add, Sub, Mul, Div)
    if isinstance(node, binary):
        spine = []
        while isinstance(node, binary):
            spine.append(node)
            node = node.left
        _, deg, pdeg = reference_budget(node, fams)
        for op in reversed(spine):
            _, d, pd = reference_budget(op.right, fams)
            if isinstance(op, (Add, Sub)):
                deg, pdeg = max(deg, d), max(pdeg, pd)
            else:
                deg, pdeg = deg + d, pdeg + pd
        return fams, deg, pdeg
    if isinstance(node, (Neg, Star)):
        return reference_budget(node.arg, fams)
    if isinstance(node, Pow):
        _, deg, pdeg = reference_budget(node.base, fams)
        k = max(abs(node.exponent), 1)
        return fams, k * deg, k * pdeg
    if isinstance(node, Num):
        return fams, 0, node.value.bit_length()
    family = {"a": "ab", "b": "ab", "f0": "f", "f1": "f", "u": "u"}
    if node.name in family:
        fams.add(family[node.name])
        return fams, 1, 0
    return fams, 0, 1   # p or q


@pytest.mark.parametrize("seed", range(3))
def test_parser_budget_matches_the_reference_walk(seed):
    rng = random.Random(700 + seed)
    texts = [random_expression(rng) for _ in range(80)]
    texts += [random_element(rng).text() for _ in range(20)]
    texts += [" + ".join(f"{random_coeff_text(rng)}*"
                         f"{workload_monomial_text(random_monomial(rng, 4))}"
                         for _ in range(rng.randint(1, 4)))
              for _ in range(20)]
    texts += ["(" * 3 + "a^*^2 - p^3" + ")" * 3 + "^2^*^3", "-(-u)^-2 * q",
              "2^65 a^0 + f0", "((a)^2 b)^3 / 5 - (p q)^4"]
    for text in texts:
        node, fams, deg, pdeg = exprs._parse(text)
        assert node == parse(text)
        assert (fams, deg, pdeg) == reference_budget(node, set()), text


ERROR_MESSAGES = {
    "a $ b": "unexpected character '$' (at position 2)",
    "zz + 1": "unknown symbol 'zz' (at position 0)",
    "a + é": "unknown symbol 'é' (at position 4)",
    "2a_ + 1": "unknown symbol 'a_' (at position 1)",
    "a½": "unknown symbol 'a½' (at position 0)",
    "²": "unexpected character '²' (at position 0)",
    "1²": "unexpected character '²' (at position 1)",
    "a^²": "unexpected character '²' (at position 2)",
    # a character that starts no token is reported before a parse error
    "a + * b $": "unexpected character '$' (at position 8)",
    "(a ^ q _x": "unexpected character '_' (at position 7)",
    "f0 + a": "cannot mix generator families (ab, f) in one expression "
              "(at position 0)",
    "u * a * f1": "cannot mix generator families (ab, f, u) in one "
                  "expression (at position 0)",
    "f1 * u": "cannot mix generator families (f, u) in one expression "
              "(at position 0)",
    "(" * 101 + "a" + ")" * 101:
        "expression nests deeper than 100 levels (at position 100)",
    "a" + "^*" * 101:
        "expression nests deeper than 100 levels (at position 201)",
    # a flag's symbols at the nesting limit, then one level over it
    "(" * 98 + "(1 - a a^*)" + ")" * 98 + " )":
        "trailing input ')' (at position 208)",
    "(" * 99 + "(1 - a a^*)" + ")" * 99:
        "expression nests deeper than 100 levels (at position 107)",
    "(1 - a*a^*": "expected ')', found None (at position 10)",
    "a^10001": "expression degree 10001 exceeds the budget 10000 "
               "(at position 0)",
    "(a b)^5001": "expression degree 10002 exceeds the budget 10000 "
                  "(at position 0)",
    "p^129": "parameter degree 129 exceeds the budget 128 (at position 0)",
    "2^65": "parameter degree 130 exceeds the budget 128 (at position 0)",
    "f0 + a^20000": "cannot mix generator families (ab, f) in one "
                    "expression (at position 0)",
    "a^20000 * p^200": "expression degree 20000 exceeds the budget 10000 "
                       "(at position 0)",
    # a zero power still evaluates its base, so it counts the base once
    "(p^100)^0 * (p^100)^0": "parameter degree 200 exceeds the budget 128 "
                             "(at position 0)",
    "(a^6000)^0 * a^5000": "expression degree 11000 exceeds the budget "
                           "10000 (at position 0)",
    "a^-1": "negative powers exist only for powers of u (at position 0)",
    "1 / a": "division only by scalar expressions (at position 0)",
    "a ^ q": "expected '*' or an integer after '^' (at position 4)",
    "u^*^-2 + (1 + a": "expected ')', found None (at position 15)",
    "a )": "trailing input ')' (at position 2)",
    "": "unexpected token None (at position 0)",
}


@pytest.mark.parametrize("text", ERROR_MESSAGES)
def test_error_messages_and_positions(text):
    with pytest.raises(ExprError) as err:
        evaluate(text)
    assert str(err.value) == ERROR_MESSAGES[text]


def test_canonical_monomials_make_no_generic_product(monkeypatch):
    # a grammar change must not send monomial text back to the generic
    # element product: count every call of s3core.mul and sparse.bilinear,
    # and the monomial products that exprs makes
    from qhopf import s3core, sparse
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(s3core, "mul", counted("mul", s3core.mul))
    monkeypatch.setattr(sparse, "bilinear",
                        counted("bilinear", sparse.bilinear))
    monkeypatch.setattr(exprs, "_mono_mul",
                        counted("_mono_mul", exprs._mono_mul))
    monomials = [BasisMonomial(mu, m, n, nu)
                 for mu in range(-3, 4) for nu in range(-3, 4)
                 for m in range(4) for n in range(4 - m) if not (m and n)]
    assert len(monomials) == 49 * 7
    for t in monomials:
        assert evaluate_algebra(t.text()) == AlgElement.from_monomial(t)
        assert evaluate_algebra(workload_monomial_text(t)) == \
            AlgElement.from_monomial(t)
    assert calls == []
    # the counters see a product that is not a letter fold, and a word
    # out of order
    evaluate("(a + b) (a + b^*)")
    assert calls == ["mul"]
    evaluate("b a")
    assert calls == ["mul", "_mono_mul"]
