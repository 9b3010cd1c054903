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

Budgets: before evaluating, one walk of the AST collects the generator
families and bounds two degrees.  In the letter degree a generator
counts 1 and a number or parameter 0; in the parameter degree p and q
count 1 and a literal its bit length.  Products and quotients add, sums
take the maximum, ``^k`` multiplies by |k|, ``^*`` and unary minus keep
it.  Evaluation folds about that many letters (or scalar factors), so a
bound beyond ``MAX_DEGREE`` (``a^1000000000``, ``a`` under thirty
stacked ``^2``) or ``MAX_PARAM_DEGREE`` (``p^100000``, ``2^100000``)
raises :class:`ExprError` without evaluating; ``(1 + p + q)^128`` takes
about 0.4 s.

Evaluation: a product chain folds each factor that is one letter of a
basis monomial's word (a, b, a^*, b^*, the flags (1 - a a^*) and
(1 - b b^*), or a power ^k >= 0 of one) onto the terms so far by
s3core's right rule for that letter, so the text of a basis monomial
costs no generic element product.
"""

from __future__ import annotations

from operator import itemgetter

from .scalars import ONE, P, Q, ParamScalar, scalar
from .s3core import (FLAG_A, FLAG_B, LETTERS, AlgElement, iota_image,
                     mul_by_generator)
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
            if tok[1] not in _SYMBOLS:
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


_FAMILY = {"a": "ab", "b": "ab", "f0": "f", "f1": "f", "u": "u"}
_FLAGS = {"a": FLAG_A, "b": FLAG_B}
_ONE_NODE = Num(1)


def _budget(node, fams):
    # (fams, letter degree, parameter degree) of an AST in one walk, by the
    # rules of the module docstring; the node's families are added to fams
    if isinstance(node, _BINARY):
        node, spine = _left_spine(node)
        _, deg, pdeg = _budget(node, fams)
        for op in spine:
            _, d, pd = _budget(op.right, fams)
            if isinstance(op, (Add, Sub)):
                deg, pdeg = max(deg, d), max(pdeg, pd)
            else:
                deg, pdeg = deg + d, pdeg + pd
        return fams, deg, pdeg
    if isinstance(node, (Neg, Star)):
        return _budget(node.arg, fams)
    if isinstance(node, Pow):
        _, deg, pdeg = _budget(node.base, fams)
        return fams, abs(node.exponent) * deg, abs(node.exponent) * pdeg
    if isinstance(node, Num):
        return fams, 0, node.value.bit_length()
    if isinstance(node, Sym) and node.name in _FAMILY:
        fams.add(_FAMILY[node.name])
        return fams, 1, 0
    return fams, 0, int(isinstance(node, Sym))   # p or q


def _letter(node):
    # (g, k) when node is g^k with k >= 0 and g one letter of s3core's
    # right rules: a, b, a^*, b^*, (1 - a a^*) or (1 - b b^*); else None
    k = 1
    while node.__class__ is Pow and node.exponent >= 0:
        k, node = k * node.exponent, node.base
    g = node.name if node.__class__ is Sym else None
    if node.__class__ is Star and node.arg.__class__ is Sym:
        g = node.arg.name + "*"
    elif (node.__class__ is Sub and node.left == _ONE_NODE
          and node.right.__class__ is Mul
          and node.right.left.__class__ is Sym
          and node.right.right == Star(node.right.left)):
        g = _FLAGS.get(node.right.left.name)
    return (g, k) if g in LETTERS else None


def _fold(val, g, k):
    # val g^k, folded letter by letter through the right rule of g
    if val.__class__ is ParamScalar:
        val = AlgElement.one().scale(val)
    for _ in range(k):
        val = mul_by_generator(val, g)
    return val


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
            letter = _letter(op.right) if op.__class__ is Mul else None
            if letter is None:
                val = _binary(op, val, _eval(op.right))
            else:
                val = _fold(val, *letter)
        return val
    if isinstance(node, Num):
        return scalar(node.value)
    if isinstance(node, Sym):
        return _SYMBOLS.get(node.name) or iota_image(node.name)
    if isinstance(node, Neg):
        return -_eval(node.arg)
    if isinstance(node, Pow):
        letter = _letter(node)
        if letter is not None:
            return _fold(ONE, *letter)
        base = _eval(node.base)
        if node.exponent < 0:
            # only single u-monomials are invertible in the circle algebra
            if not (isinstance(base, LaurentElement) and len(base.terms) == 1):
                raise ExprError("negative powers exist only for powers of u",
                                0)
            (j, c), = base.terms.items()
            base = LaurentElement({-j: ONE / c})
        out = ONE if isinstance(base, ParamScalar) else base.one()
        for _ in range(abs(node.exponent)):
            out = out * base
        return out
    if isinstance(node, Star):
        val = _eval(node.arg)   # the parameters are real
        return val if isinstance(val, ParamScalar) else val.star()
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(text_or_node):
    """Evaluate an expression to a ParamScalar, AlgElement, or LaurentElement."""
    node = parse(text_or_node) if isinstance(text_or_node, str) else text_or_node
    fams, deg, pdeg = _budget(node, set())
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
