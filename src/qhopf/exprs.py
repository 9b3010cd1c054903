"""Parser and evaluator for *-algebra expressions.

Grammar (infix, left associative):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-'* atom postfix*
    postfix := '^' '*'  |  '^' ['-'] INT
    atom    := INT | NAME | '(' expr ')'

Names: the sphere generators a, b; the base generators f0, f1; the
circle generator u; the parameters p, q.  ``^*`` is the adjoint and
binds tighter than an integer power, both tighter than ``*``.  The
three generator families cannot be mixed in one expression: base
generators are routed through their embedding, so a mixed expression
would hide which algebra the result lives in.  Negative powers exist
only for u.  Division is by scalar-valued subexpressions only.

Nesting budget: no symbol may sit inside more than ``MAX_NESTING``
levels, where every enclosing parenthesis pair, unary minus and postfix
operator (``^*`` or ``^n``) counts as one level; ``((a^*))^*`` nests
``a`` four deep.  Parsing and evaluation recurse once per level, so a
deeper input raises :class:`ExprError` instead of exhausting the
interpreter stack.  Long sums and products cost no depth.

Budgets: the parser collects the generator families and counts two
degrees as it builds each node; the evaluators take text and check them
first.  In the letter degree a generator counts 1 and a number or
parameter 0; in the parameter degree p and q count 1 and a literal its
bit length.  Products and quotients add, sums take the maximum, ``^k``
multiplies by max(|k|, 1) (``x^0`` still evaluates x, so it counts as
x), ``^*`` and unary minus keep it.  Result sizes and product counts
grow with them, so a bound beyond ``MAX_DEGREE`` (``a^1000000000``,
``a`` under thirty stacked ``^2``) or ``MAX_PARAM_DEGREE``
(``p^100000``, ``2^100000``, a literal of 40 digits, ``(p^100)^0 *
(p^100)^0``) raises :class:`ExprError` without evaluating, and a number
is checked before it is converted; ``(1 + p + q)^128`` takes about
0.2 s.
The budget bounds the syntax tree, not the time of a generic power of a
sum: ``(a + b^* + a^*)^k`` took 0.003, 0.05 and 1.7 s at k = 8, 16, 32.

Evaluation: the parser takes a flag (1 - g g^*) or (1 - g*g^*) in one
step, as the node the general path builds.  A product chain keeps a run
of letters g^k (k >= 1; g is a, b, a^*, b^*, or a flag) as one basis
monomial while it stays in word order a_mu (1 - a a^*)^m (1 - b b^*)^n
b_nu, and multiplies the terms so far by it only where the order breaks
and at the end of the run, so a basis monomial's text costs no product.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .scalars import ONE, P, Q, ParamScalar, scalar
from .s3core import (UNIT_MONO, AlgElement, BasisMonomial, _mono_mul,
                     iota_image)
from .sparse import extend
from .hopf import LaurentElement

__all__ = [
    "ExprError",
    "MAX_NESTING",
    "MAX_DEGREE",
    "MAX_PARAM_DEGREE",
    "parse",
    "evaluate",
    "evaluate_algebra",
    "evaluate_scalar",
    "Num", "Sym", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Star",
]


class ExprError(ValueError):
    """Syntax or typing error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- AST ---------------------------------------------------------------------

_tuple_new = tuple.__new__


class _Node(tuple):
    """An AST node: the tuple of its class and its fields.

    The class in front makes equality and hashing tell node kinds apart
    (``Mul(x, y) != Div(x, y)``) at the speed of tuple comparison, and a
    tuple cannot be changed.  Each field is a read-only property.
    """

    __slots__ = ()

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__match_args__, self[1:]))
        return f"{self.__class__.__name__}({fields})"


def _node(name: str, new) -> type:
    # a node class built by new(cls, *fields), whose parameters after cls
    # name the fields
    fields = new.__code__.co_varnames[1:new.__code__.co_argcount]
    attrs = {f: property(itemgetter(i)) for i, f in enumerate(fields, 1)}
    return type(name, (_Node,), {
        "__slots__": (), "__match_args__": fields, "__module__": __name__,
        "__new__": new, **attrs})


def _value(cls, value):
    return _tuple_new(cls, (cls, value))


def _name(cls, name):
    return _tuple_new(cls, (cls, name))


def _arg(cls, arg):
    return _tuple_new(cls, (cls, arg))


def _operands(cls, left, right):
    return _tuple_new(cls, (cls, left, right))


def _power(cls, base, exponent):
    return _tuple_new(cls, (cls, base, exponent))


Num, Sym = _node("Num", _value), _node("Sym", _name)
Neg, Star = _node("Neg", _arg), _node("Star", _arg)
Add, Sub, Mul, Div = (_node(op, _operands)
                      for op in ("Add", "Sub", "Mul", "Div"))
Pow = _node("Pow", _power)


# the value of each name (all are immutable)
_SYMBOLS = {"a": AlgElement.generator("a"), "b": AlgElement.generator("b"),
            "u": LaurentElement.u_power(1), "p": P, "q": Q,
            "f0": iota_image("f0"), "f1": iota_image("f1")}

MAX_NESTING = 100
MAX_DEGREE = 10000
MAX_PARAM_DEGREE = 128
_BUDGET_DIGITS = len(str(2 ** MAX_PARAM_DEGREE))
_LONG_LITERAL = ("parameter degree of a {}-digit literal exceeds the budget "
                 f"{MAX_PARAM_DEGREE}")
_LONG_EXPONENT = "a {}-digit exponent exceeds the degree budgets"

# a token is a run of decimal digits, a word, or one other non-space
# character; a word is a name only when it starts with a letter
_TOKEN = re.compile(r"\d+|\w+|\S")
_SUMS = {"+": Add, "-": Sub}
_PRODUCTS = {"*": Mul, "/": Div}
_ENDS_TERM = frozenset(("+", "-", ")", None))
_FAMILY = {"a": "ab", "b": "ab", "f0": "f", "f1": "f", "u": "u"}
# name -> (node, family or None, letter degree, parameter degree)
_ATOMS = {name: (Sym(name), _FAMILY.get(name), int(name in _FAMILY),
                 int(name not in _FAMILY)) for name in _SYMBOLS}
# the flags 1 - g g^*, one node each, and the first eight tokens of
# (1 - g g^*) and of (1 - g*g^*) -> the number of tokens of the flag
_FLAG_A, _FLAG_B = (Sub(Num(1), Mul(Sym(g), Star(Sym(g)))) for g in "ab")
_FLAG_TOKENS = {("(", "1", "-", g, *mid, g, "^", "*", ")")[:8]: 8 + len(mid)
                for g in "ab" for mid in ((), ("*",))}


class _Parser:
    """Recursive descent over the token strings of one text.

    Each rule returns (node, letter degree, parameter degree) by the
    budget rules of the module docstring and adds the generator families
    it meets to ``fams``.  None stands for the end of the text.  Token
    positions are worked out only for an error.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append(None)
        self.i = 0       # index of the next token
        self.depth = 0   # levels enclosing the token being parsed
        self.peak = 0    # deepest level reached inside the current atom
        self.fams = set()

    def fail(self, message: str, i: int):
        # tokenizer errors come first, in text order: a character that
        # starts no token
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        for tok, pos in zip(self.toks, starts):
            if not (tok in "+-*/^()" or tok.isdecimal() or tok[0].isalpha()):
                raise ExprError(f"unexpected character {tok[0]!r}", pos)
        starts.append(len(self.text))
        raise ExprError(message, starts[i])

    def number(self, i: int, message: str) -> int:
        # the decimal token i as an int, unless it has more significant
        # digits than 2^MAX_PARAM_DEGREE: then it fails with message
        # before int() (which has a digit limit) sees it
        n = len(self.toks[i].lstrip("0"))
        if n > _BUDGET_DIGITS:
            self.fail(message.format(n), i)
        return int(self.toks[i])

    def nest(self, levels: int, i: int) -> int:
        depth = self.depth + levels
        if depth > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", i)
        if depth > self.peak:
            self.peak = depth
        return depth

    def expr(self):
        node, deg, pdeg = self.term()
        toks = self.toks
        while True:
            cls = _SUMS.get(toks[self.i])
            if cls is None:
                return node, deg, pdeg
            self.i += 1
            rhs, d, pd = self.term()
            node = _tuple_new(cls, (cls, node, rhs))
            deg, pdeg = max(deg, d), max(pdeg, pd)

    def term(self):
        node, deg, pdeg = self.factor()
        toks = self.toks
        while True:
            tok = toks[self.i]
            cls = _PRODUCTS.get(tok)
            if cls is not None:
                self.i += 1
            elif tok in _ENDS_TERM:
                return node, deg, pdeg
            else:
                # juxtaposition: canonical monomials separate factors
                # with spaces, e.g. "a (1 - a a^*) b"
                cls = Mul
            rhs, d, pd = self.factor()
            node = _tuple_new(cls, (cls, node, rhs))
            deg, pdeg = deg + d, pdeg + pd

    def factor(self):
        toks, i = self.toks, self.i
        tok = toks[i]
        self.i = i + 1
        if tok == "-":
            outer, self.depth = self.depth, self.nest(1, i)
            node, deg, pdeg = self.factor()
            self.depth = outer
            return _tuple_new(Neg, (Neg, node)), deg, pdeg
        # the atom, then its postfix operators; inner counts the levels
        # of the atom's deepest symbol below self.depth
        inner = 0
        hit = _ATOMS.get(tok)
        n = (_FLAG_TOKENS.get(tuple(toks[i:i + 8])) if tok == "("
             and self.depth + 2 <= MAX_NESTING else None)
        if n is not None and toks[i + n - 1] == ")":
            # a flag in one step: g sits two levels deep, as on the
            # general path
            node = _FLAG_B if toks[i + 3] == "b" else _FLAG_A
            deg, pdeg, inner, self.i = 2, 1, 2, i + n
            self.peak = max(self.peak, self.depth + 2)
            self.fams.add("ab")
        elif hit is not None:
            node, fam, deg, pdeg = hit
            if fam is not None:
                self.fams.add(fam)
        elif tok == "(":
            outer, outer_peak, self.peak = self.depth, self.peak, self.depth
            self.depth = self.nest(1, i)
            node, deg, pdeg = self.expr()
            if toks[self.i] != ")":
                self.fail(f"expected ')', found {toks[self.i]!r}", self.i)
            self.i += 1
            self.depth = outer
            inner, self.peak = self.peak - outer, max(outer_peak, self.peak)
        elif tok is not None and tok.isdecimal():
            node = Num(self.number(i, _LONG_LITERAL))
            deg, pdeg = 0, node.value.bit_length()
        elif tok is not None and tok[0].isalpha():
            self.fail(f"unknown symbol {tok!r}", i)
        else:
            self.fail(f"unexpected token {tok!r}", i)
        while toks[self.i] == "^":
            # each postfix operator encloses the whole atom once more
            i = self.i
            inner += 1
            self.nest(inner, i)
            tok = toks[i + 1]
            if tok == "*":
                self.i = i + 2
                node = _tuple_new(Star, (Star, node))
                continue
            if tok == "-":
                i += 1
                tok = toks[i + 1]
                if tok is None or not tok.isdecimal():
                    self.fail(f"expected 'INT', found {tok!r}", i + 1)
                k = -self.number(i + 1, _LONG_EXPONENT)
            elif tok is not None and tok.isdecimal():
                k = self.number(i + 1, _LONG_EXPONENT)
            else:
                self.fail("expected '*' or an integer after '^'", i + 1)
            self.i = i + 2
            node = _tuple_new(Pow, (Pow, node, k))
            # the base is evaluated even for k = 0, so it counts once
            k = max(abs(k), 1)
            deg, pdeg = k * deg, k * pdeg
        return node, deg, pdeg


def _parse(text: str):
    # (AST, generator families, letter degree, parameter degree)
    parser = _Parser(text)
    node, deg, pdeg = parser.expr()
    tok = parser.toks[parser.i]
    if tok is not None:
        parser.fail(f"trailing input {tok!r}", parser.i)
    return node, parser.fams, deg, pdeg


def parse(text: str):
    """Parse an expression into its AST."""
    return _parse(text)[0]


# -- evaluation ---------------------------------------------------------------

_BINARY = (Add, Sub, Mul, Div)
# the letters of a word: node -> (i, s), where g^k is the basis monomial
# with s k at index i, in word order a_mu, flag_a, flag_b, b_nu
_LETTERS = {Sym("a"): (0, 1), Star(Sym("a")): (0, -1), _FLAG_A: (1, 1),
            _FLAG_B: (2, 1), Sym("b"): (3, 1), Star(Sym("b")): (3, -1)}


def _letter(node):
    # (i, s k) when node is g^k with k >= 1 and g a letter; else None
    k = 1
    while node.__class__ is Pow and node[2] >= 0:
        k, node = k * node[2], node[1]
    cls = node.__class__
    # only small nodes are hashed
    if k and (cls is Sym or cls is Star and node[1].__class__ is Sym
              or node == _FLAG_A or node == _FLAG_B):
        hit = _LETTERS.get(node)
        if hit:
            return hit[0], hit[1] * k
    return None


def _terms(val) -> dict:
    # the term dict of a sphere element, or of a scalar times 1; it is
    # read, never changed
    if val.__class__ is ParamScalar:
        return {UNIT_MONO: val} if val else {}
    return val._d


def _times(d: dict, w: list) -> dict:
    # the terms d times the basis monomial with indices w
    t = _tuple_new(BasisMonomial, w)
    if len(d) == 1 and UNIT_MONO in d:
        return {t: d[UNIT_MONO]}
    return extend(d, lambda s: _mono_mul(s, t))


def _lift(x, like):
    # a scalar operand of a sum becomes a multiple of the other's unit
    if isinstance(x, ParamScalar) and not isinstance(like, ParamScalar):
        return like.one().scale(x)
    return x


def _binary(cls, x, y):
    if cls is Mul:
        return x * y
    if cls is Add:
        return _lift(x, y) + _lift(y, x)
    if cls is Sub:
        return _lift(x, y) - _lift(y, x)
    if not isinstance(y, ParamScalar):
        raise ExprError("division only by scalar expressions", 0)
    if y.is_zero():
        raise ZeroDivisionError("division by zero")
    return x * (ONE / y)


def _eval(node):
    cls = node.__class__
    if cls in _BINARY or cls is Pow and _letter(node):
        # a long sum or product is a left-deep chain of binary nodes; walk
        # it with a loop so that its length costs no stack depth
        spine = []
        while (node.__class__ in _BINARY and node != _FLAG_A
               and node != _FLAG_B):
            spine.append((node.__class__, node[2]))
            node = node[1]
        spine.append((Mul, node))   # the first operand: a product onto None
        # a run of letters is the terms d times the word w, whose last
        # letter set index j; val is everything else
        val = w = None
        for cls, x in reversed(spine):
            letter = _letter(x) if cls is Mul else None
            if letter is not None:
                i, e = letter
                if w is None:
                    d, w = _terms(ONE if val is None else val), [0, 0, 0, 0]
                elif i < j or w[i] * e < 0 or j == 1 and i == 2:
                    # out of word order (an earlier index, a power of the
                    # other sign, flag_a then flag_b): multiply by the word
                    d, w = _times(d, w), [0, 0, 0, 0]
                w[i] += e
                j = i
                continue
            if w is not None:
                val, w = AlgElement._raw(_times(d, w)), None
            x = _eval(x)
            val = x if val is None else _binary(cls, val, x)
        return val if w is None else AlgElement._raw(_times(d, w))
    if cls is Num:
        return scalar(node.value)
    if cls is Sym:
        return _SYMBOLS[node.name]
    if cls is Neg:
        return -_eval(node.arg)
    if cls is Star:
        val = _eval(node.arg)   # the parameters are real
        return val if val.__class__ is ParamScalar else val.star()
    base = _eval(node.base)   # node is a power
    if node.exponent < 0:
        # only single u-monomials are invertible in the circle algebra
        if not (isinstance(base, LaurentElement) and len(base.terms) == 1):
            raise ExprError("negative powers exist only for powers of u", 0)
        (j, c), = base.terms.items()
        base = LaurentElement({-j: ONE / c})
    if base.__class__ is ParamScalar:
        return base ** node.exponent   # square and multiply
    out = base.one()
    for _ in range(abs(node.exponent)):
        out = out * base
    return out


def evaluate(text: str):
    """Evaluate an expression to a ParamScalar, AlgElement, or LaurentElement."""
    node, fams, deg, pdeg = _parse(text)
    if len(fams) > 1:
        raise ExprError(
            "cannot mix generator families "
            f"({', '.join(sorted(fams))}) in one expression", 0)
    if deg > MAX_DEGREE:
        raise ExprError(f"expression degree {deg} exceeds the budget "
                        f"{MAX_DEGREE}", 0)
    if pdeg > MAX_PARAM_DEGREE:
        raise ExprError(f"parameter degree {pdeg} exceeds the budget "
                        f"{MAX_PARAM_DEGREE}", 0)
    return _eval(node)


def evaluate_algebra(text: str) -> AlgElement:
    """Evaluate and land in the sphere algebra (scalars become multiples of 1)."""
    val = evaluate(text)
    if isinstance(val, ParamScalar):
        return AlgElement.one().scale(val)
    if isinstance(val, AlgElement):
        return val
    raise ExprError("expected a sphere-algebra expression, got one in u", 0)


def evaluate_scalar(text: str) -> ParamScalar:
    """Evaluate an expression that must be scalar-valued."""
    val = evaluate(text)
    if not isinstance(val, ParamScalar):
        raise ExprError("expected a scalar expression", 0)
    return val
