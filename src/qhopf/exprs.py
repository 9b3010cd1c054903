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

Degree budget: before evaluating, the letter degree of the expression
is bounded from its AST (a generator counts 1, a number or parameter
0; products and quotients add, sums take the maximum, ``^k`` multiplies
by |k|, ``^*`` and unary minus keep it).  Evaluation folds about that
many letters, so an expression whose bound exceeds ``MAX_DEGREE``
raises :class:`ExprError` without being evaluated: ``a^1000000000`` or
``a`` under thirty stacked ``^2`` would ask for about 10^9 folds.  The
same rules bound a parameter degree, in which p and q count 1 and an
integer literal counts its bit length, so scalar powers such as
``p^100000`` or ``2^100000``, which letters do not see, are budgeted
too: a bound beyond ``MAX_PARAM_DEGREE`` raises :class:`ExprError`.  At
that budget ``(1 + p + q)^128`` evaluates in about 0.4 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ONE, P, Q, ParamScalar, scalar
from .s3core import AlgElement, iota_image
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

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Star:
    arg: object


_NAMES = {"a", "b", "u", "p", "q", "f0", "f1"}

MAX_NESTING = 100
MAX_DEGREE = 10000
MAX_PARAM_DEGREE = 128


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0   # levels enclosing the token being parsed
        self.peak = 0    # deepest level reached inside the current atom

    def nest(self, levels: int, pos: int) -> int:
        depth = self.depth + levels
        if depth > MAX_NESTING:
            raise ExprError(
                f"expression nests deeper than {MAX_NESTING} levels", pos)
        self.peak = max(self.peak, depth)
        return depth

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                op = self.advance()[0]
                rhs = self.factor()
                node = Mul(node, rhs) if op == "*" else Div(node, rhs)
            elif kind in ("NAME", "INT", "("):
                # juxtaposition: canonical monomials separate factors
                # with spaces, e.g. "a (1 - a a^*) b"
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            outer, self.depth = self.depth, self.nest(1, tok[2])
            node = Neg(self.factor())
            self.depth = outer
            return node
        outer_peak, self.peak = self.peak, self.depth
        node = self.atom()
        inner = self.peak - self.depth
        while self.peek()[0] == "^":
            # each postfix operator encloses the whole atom once more
            inner += 1
            self.nest(inner, self.advance()[2])
            tok = self.peek()
            if tok[0] == "*":
                self.advance()
                node = Star(node)
            elif tok[0] == "-":
                self.advance()
                exp = self.expect("INT")
                node = Pow(node, -exp[1])
            elif tok[0] == "INT":
                self.advance()
                node = Pow(node, tok[1])
            else:
                raise ExprError("expected '*' or an integer after '^'",
                                tok[2])
        self.peak = max(outer_peak, self.peak)
        return node

    def atom(self):
        tok = self.advance()
        if tok[0] == "INT":
            return Num(tok[1])
        if tok[0] == "NAME":
            if tok[1] not in _NAMES:
                raise ExprError(f"unknown symbol {tok[1]!r}", tok[2])
            return Sym(tok[1])
        if tok[0] == "(":
            outer, self.depth = self.depth, self.nest(1, tok[2])
            node = self.expr()
            self.expect(")")
            self.depth = outer
            return node
        raise ExprError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text: str):
    """Parse an expression into its AST."""
    return _Parser(text).parse()


# -- evaluation ---------------------------------------------------------------

_BINARY = (Add, Sub, Mul, Div)


def _left_spine(node):
    # a long sum or product is a left-deep chain of binary nodes; walk it
    # with a loop so that its length costs no stack depth
    spine = []
    while isinstance(node, _BINARY):
        spine.append(node)
        node = node.left
    return node, spine[::-1]


def _families(node, found: set):
    if isinstance(node, _BINARY):
        node, spine = _left_spine(node)
        for op in spine:
            _families(op.right, found)
    if isinstance(node, Sym):
        if node.name in ("a", "b"):
            found.add("ab")
        elif node.name in ("f0", "f1"):
            found.add("f")
        elif node.name == "u":
            found.add("u")
    elif isinstance(node, (Neg, Star)):
        _families(node.arg, found)
    elif isinstance(node, Pow):
        _families(node.base, found)
    return found


def _letters(leaf) -> int:
    return 1 if isinstance(leaf, Sym) and leaf.name not in ("p", "q") else 0


def _params(leaf) -> int:
    if isinstance(leaf, Num):
        return leaf.value.bit_length()
    return 1 if isinstance(leaf, Sym) and leaf.name in ("p", "q") else 0


def _degree(node, weight=_letters) -> int:
    # the degree bound described in the module docstring; ``weight``
    # gives a leaf's degree: letters by default, or parameters
    if isinstance(node, _BINARY):
        node, spine = _left_spine(node)
        deg = _degree(node, weight)
        for op in spine:
            rhs = _degree(op.right, weight)
            deg = max(deg, rhs) if isinstance(op, (Add, Sub)) else deg + rhs
        return deg
    if isinstance(node, (Neg, Star)):
        return _degree(node.arg, weight)
    if isinstance(node, Pow):
        return abs(node.exponent) * _degree(node.base, weight)
    return weight(node)


def _lift(x, like):
    # a scalar operand of a sum becomes a multiple of the other's unit
    if isinstance(x, ParamScalar) and not isinstance(like, ParamScalar):
        return like.one().scale(x)
    return x


def _binary(node, x, y):
    if isinstance(node, Add):
        return _lift(x, y) + _lift(y, x)
    if isinstance(node, Sub):
        return _lift(x, y) - _lift(y, x)
    if isinstance(node, Mul):
        return x * y
    if not isinstance(y, ParamScalar):
        raise ExprError("division only by scalar expressions", 0)
    if y.is_zero():
        raise ZeroDivisionError("division by zero")
    return x * (ONE / y)


def _eval(node):
    if isinstance(node, _BINARY):
        node, spine = _left_spine(node)
        val = _eval(node)
        for op in spine:
            val = _binary(op, val, _eval(op.right))
        return val
    if isinstance(node, Num):
        return scalar(node.value)
    if isinstance(node, Sym):
        if node.name == "p":
            return P
        if node.name == "q":
            return Q
        if node.name == "u":
            return LaurentElement.u_power(1)
        if node.name in ("a", "b"):
            return AlgElement.generator(node.name)
        return iota_image(node.name)
    if isinstance(node, Neg):
        return -_eval(node.arg)
    if isinstance(node, Pow):
        base = _eval(node.base)
        k = node.exponent
        if k < 0:
            # only single u-monomials are invertible in the circle algebra
            if isinstance(base, LaurentElement) and len(base.terms) == 1:
                (j, c), = base.terms.items()
                inv = LaurentElement({-j: ONE / c})
                out = LaurentElement.one()
                for _ in range(-k):
                    out = out * inv
                return out
            raise ExprError("negative powers exist only for powers of u", 0)
        out = ONE if isinstance(base, ParamScalar) else base.one()
        for _ in range(k):
            out = out * base
        return out
    if isinstance(node, Star):
        val = _eval(node.arg)
        if isinstance(val, ParamScalar):
            return val  # the parameters are real
        return val.star()
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(text_or_node):
    """Evaluate an expression to a ParamScalar, AlgElement, or LaurentElement."""
    node = parse(text_or_node) if isinstance(text_or_node, str) else text_or_node
    fams = _families(node, set())
    if len(fams) > 1:
        raise ExprError(
            "cannot mix generator families "
            f"({', '.join(sorted(fams))}) in one expression", 0)
    deg = _degree(node)
    if deg > MAX_DEGREE:
        raise ExprError(f"expression degree {deg} exceeds the budget "
                        f"{MAX_DEGREE}", 0)
    deg = _degree(node, _params)
    if deg > MAX_PARAM_DEGREE:
        raise ExprError(f"parameter degree {deg} exceeds the budget "
                        f"{MAX_PARAM_DEGREE}", 0)
    return _eval(node)


def evaluate_algebra(text_or_node) -> AlgElement:
    """Evaluate and land in the sphere algebra (scalars become multiples of 1)."""
    val = evaluate(text_or_node)
    if isinstance(val, ParamScalar):
        return AlgElement.one().scale(val)
    if isinstance(val, AlgElement):
        return val
    raise ExprError("expected a sphere-algebra expression, got one in u", 0)


def evaluate_scalar(text_or_node) -> ParamScalar:
    """Evaluate an expression that must be scalar-valued."""
    val = evaluate(text_or_node)
    if not isinstance(val, ParamScalar):
        raise ExprError("expected a scalar expression", 0)
    return val
