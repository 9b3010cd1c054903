"""Seeded inputs, items and known-answer checks for the three workloads.

The inputs come from this module's own generator, never from
``qhopf.verify``, so a change to the program's test helpers cannot
silently change the traffic.  Every item carries three callables:
``run()`` computes the output inside the timed region, ``check(out)``
compares it with the known answer (also timed: it is part of reaching a
verdict), and ``text(out)`` renders the canonical output text for the
digest, outside the timed region.  Outputs, including values the program
returns from its caches, are only read, never mutated.

Importing this module imports ``qhopf``; the child process does so only
after it has measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import qhopf.cli
from qhopf import chern, exprs, galois, gluing, hopf, numrep, s3core
from qhopf.s3core import AlgElement, BasisMonomial
from qhopf.scalars import ParamScalar

# numeric parameters of the operator oracle
P_NUM, Q_NUM = Fraction(1, 2), Fraction(1, 3)
# two rational points at which rendered coefficients are compared
CHECK_POINTS = ((Fraction(3, 7), Fraction(5, 11)),
                (Fraction(2, 13), Fraction(9, 17)))


class Item(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    text: Callable[[object], str]
    label: str


# ---------------------------------------------------------------------------
# seeded element generator
#
# An element spec is a tuple of ((mu, m, n, nu), coeff) with distinct
# monomials; a coefficient is a dict {(i, j): int} for sum c p^i q^j.
# ---------------------------------------------------------------------------

def random_coeff(rng: random.Random) -> dict:
    c = {(0, 0): rng.randint(-3, 3)}
    if rng.random() < 0.4:
        c[(1, 0)] = rng.randint(-2, 2)
    if rng.random() < 0.4:
        c[(0, 1)] = rng.randint(-2, 2)
    c = {k: v for k, v in c.items() if v}
    return c or {(0, 0): 1}


def random_spec(rng: random.Random, max_shift: int = 2, max_flag: int = 2,
                max_terms: int = 3, coinvariant: bool = False,
                coeff_rng: random.Random | None = None) -> tuple:
    """Distinct monomials from ``rng``, coefficients from ``coeff_rng``."""
    coeff_rng = coeff_rng or rng
    want = rng.randint(1, max_terms)
    terms: dict = {}
    while len(terms) < want:
        mu = rng.randint(-max_shift, max_shift)
        nu = mu if coinvariant else rng.randint(-max_shift, max_shift)
        m = rng.randint(0, max_flag)
        n = 0 if m else rng.randint(0, max_flag)
        terms.setdefault((mu, m, n, nu), random_coeff(coeff_rng))
    return tuple(terms.items())


def _power(base: str, k: int) -> str:
    return base if k == 1 else f"{base}^{k}"


def render_coeff(c: dict) -> str:
    bits = []
    for (i, j), v in sorted(c.items()):
        mono = "*".join(s for s in (_power("p", i) if i else "",
                                    _power("q", j) if j else "") if s)
        bits.append(f"{v}*{mono}" if mono else str(v))
    return "(" + " + ".join(bits) + ")"


def render_monomial(mono: tuple) -> str:
    mu, m, n, nu = mono
    parts = []
    if mu:
        parts.append(_power("a" if mu > 0 else "a^*", abs(mu)))
    if m:
        parts.append(_power("(1 - a*a^*)", m))
    if n:
        parts.append(_power("(1 - b*b^*)", n))
    if nu:
        parts.append(_power("b" if nu > 0 else "b^*", abs(nu)))
    return "*".join(parts) or "1"


def render_spec(spec: tuple) -> str:
    """Expression text in the grammar of ``qhopf.exprs``."""
    return " + ".join(f"{render_coeff(c)}*{render_monomial(t)}"
                      for t, c in spec)


def build_element(spec: tuple) -> AlgElement:
    return AlgElement({BasisMonomial(*t): ParamScalar(c) for t, c in spec})


def coeff_value(c: dict, p: Fraction, q: Fraction) -> Fraction:
    return sum((v * p ** i * q ** j for (i, j), v in c.items()), Fraction(0))


def exact_trace(spec: tuple, p: Fraction, q: Fraction) -> Fraction:
    """Closed-form trace of a coinvariant spec (see ``qhopf.chern``)."""
    total = Fraction(0)
    for (mu, m, n, _nu), c in spec:
        if mu:
            continue
        if m:
            total += coeff_value(c, p, q) / (1 - q ** m)
        elif n:
            total -= coeff_value(c, p, q) / (1 - p ** n)
    return total


def spec_props(specs) -> dict:
    monos = [t for spec in specs for t, _ in spec]
    counts = [len(spec) for spec in specs]
    return {
        "elements": len(counts),
        "max_shift_reach": max(abs(t[0]) + abs(t[3]) for t in monos),
        "max_flag_degree": max(max(t[1], t[2]) for t in monos),
        "terms_min": min(counts),
        "terms_max": max(counts),
        "terms_mean": round(sum(counts) / len(counts), 3),
    }


# ---------------------------------------------------------------------------
# a small evaluator for rendered scalars, independent of qhopf.scalars
# ---------------------------------------------------------------------------

def eval_scalar_text(text: str, p: Fraction, q: Fraction) -> Fraction:
    """Evaluate a rendered rational function of p and q exactly."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch in "pq+-*/^()":
            toks.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected {ch!r} in {text!r}")
    toks.append(None)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            v = v * factor() if take() == "*" else v / factor()
        return v

    def factor():
        if peek() == "-":
            take()
            return -factor()
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError(f"unbalanced {text!r}")
        elif tok == "p":
            v = p
        elif tok == "q":
            v = q
        elif isinstance(tok, int):
            v = Fraction(tok)
        else:
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        if peek() == "^":
            take()
            v = v ** take()
        return v

    out = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return out


# ---------------------------------------------------------------------------
# known-answer checks (each takes the program's output)
# ---------------------------------------------------------------------------

def check_idempotent(n: int, out) -> bool:
    e, defect = out
    return (e.shape == (n + 1, n + 1) and defect.is_zero()
            and e.all_coinvariant())


def check_pairing(mu: int, value) -> bool:
    return str(value) == str(mu)


def check_connection(out) -> bool:
    recursive, closed = out
    return recursive == closed


def check_freeness(k: int, cot) -> bool:
    """The lifted canonical map sends the connection on u^k to 1 (x) u^k."""
    if len(cot.terms) != 1:
        return False
    (mono, power), coeff = next(iter(cot.terms.items()))
    return tuple(mono) == (0, 0, 0, 0) and power == k and str(coeff) == "1"


def check_terms(terms: list, spec: tuple) -> bool:
    """JSON terms of a normal form against the spec they must reproduce."""
    got = {(t["mu"], t["m"], t["n"], t["nu"]): t["coeff"] for t in terms}
    if set(got) != {t for t, _ in spec}:
        return False
    return all(eval_scalar_text(got[t], p, q) == coeff_value(c, p, q)
               for t, c in spec for p, q in CHECK_POINTS)


def check_cli_normalize(spec: tuple, out) -> bool:
    code, text = out
    return code == 0 and check_terms(json.loads(text)["result"]["terms"],
                                     spec)


def check_cli_trace(spec: tuple, out) -> bool:
    code, text = out
    if code != 0:
        return False
    value = json.loads(text)["result"]["value"]
    return all(eval_scalar_text(value, p, q) == exact_trace(spec, p, q)
               for p, q in CHECK_POINTS)


def check_cli_mul(out) -> bool:
    code, text, want = out
    return code == 0 and json.loads(text)["result"]["terms"] == want


def check_numeric_trace(exact: float, result) -> bool:
    return abs(result.value - exact) <= result.tail_bound + 1e-9


# ---------------------------------------------------------------------------
# deep-exact: few large items in a fixed order of growing size
# ---------------------------------------------------------------------------

DEEP_SIZES = {"full": {"idempotent": 4, "pairing": 9, "connection": 25,
                       "freeness": 12},
              "tiny": {"idempotent": 2, "pairing": 3, "connection": 4,
                       "freeness": 2}}


def _signed(rng: random.Random, n: int) -> tuple:
    # the seed decides only which sign of each size runs first, so every
    # seed does the same work and the workload's cost is set by its sizes
    return (n, -n) if rng.random() < 0.5 else (-n, n)


def _idempotent_item(mu: int) -> Item:
    n = abs(mu)

    def run():
        e = chern.idempotent(mu)
        return e, e @ e - e

    return Item("idempotent", run, lambda out: check_idempotent(n, out),
                lambda out: out[0].text(), f"E@E-E mu={mu}")


def _pairing_item(mu: int) -> Item:
    return Item("pairing", lambda: chern.pairing(mu),
                lambda v: check_pairing(mu, v), str, f"pairing mu={mu}")


def _connection_item(k: int) -> Item:
    sign = "+" if k > 0 else "-"

    def run():
        return (galois.strong_connection(k),
                galois.strong_connection_closed(abs(k), sign))

    return Item("connection", run, check_connection,
                lambda out: out[0].text(), f"connection k={k}")


def _freeness_item(k: int) -> Item:
    return Item("freeness",
                lambda: galois.lifted_can(galois.strong_connection(k)),
                lambda cot: check_freeness(k, cot), lambda cot: cot.text(),
                f"lifted_can k={k}")


def deep_exact(seed: int, size: str):
    rng = random.Random(f"deep-exact/{seed}")
    sizes = DEEP_SIZES[size]
    items = []
    for n in range(1, sizes["idempotent"] + 1):
        items += [_idempotent_item(mu) for mu in _signed(rng, n)]
    for n in range(1, sizes["pairing"] + 1):
        items += [_pairing_item(mu) for mu in _signed(rng, n)]
    for n in range(1, sizes["connection"] + 1):
        items += [_connection_item(k) for k in _signed(rng, n)]
    for n in range(1, sizes["freeness"] + 1):
        items += [_freeness_item(k) for k in _signed(rng, n)]
    # idempotent(+-n) multiplies legs of shift reach n into entries of
    # reach 2n; the connection at +-k has k + 1 terms with legs of reach k
    # and flags up to k; lifted_can multiplies those legs together
    traffic = {"sizes": sizes,
               "max_shift_reach": max(2 * sizes["idempotent"],
                                      2 * sizes["pairing"],
                                      sizes["connection"]),
               "max_flag_degree": max(sizes.values()),
               "matrix_size_max": max(sizes["idempotent"],
                                      sizes["pairing"]) + 1,
               "connection_terms_max": sizes["connection"] + 1}
    return items, traffic


# ---------------------------------------------------------------------------
# wide-exact: thousands of small seeded elements, parsed from text
# ---------------------------------------------------------------------------

WIDE_MIX = {"full": {"associativity": 300, "star": 250, "winding": 200,
                     "coaction": 200, "gluing": 200, "tracial": 200,
                     "cli-normalize": 80, "cli-mul": 80, "cli-trace": 80},
            "tiny": {"associativity": 4, "star": 4, "winding": 3,
                     "coaction": 3, "gluing": 3, "tracial": 3,
                     "cli-normalize": 2, "cli-mul": 2, "cli-trace": 2}}


def parse(text: str) -> AlgElement:
    return exprs.evaluate_algebra(text)


def run_cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qhopf.cli.main(argv)
    return code, buf.getvalue()


def _assoc_item(tx, ty, tz) -> Item:
    def run():
        x, y, z = parse(tx), parse(ty), parse(tz)
        return (s3core.mul(s3core.mul(x, y), z),
                s3core.mul(x, s3core.mul(y, z)))
    return Item("associativity", run, lambda o: o[0] == o[1],
                lambda o: o[0].text(), f"({tx})({ty})({tz})")


def _star_item(tx, ty) -> Item:
    def run():
        x, y = parse(tx), parse(ty)
        xs = x.star()
        return (s3core.mul(x, y).star(), s3core.mul(y.star(), xs),
                xs.star() == x)
    return Item("star", run, lambda o: o[0] == o[1] and o[2],
                lambda o: o[0].text(), f"star ({tx})({ty})")


def _winding_item(tx, ty) -> Item:
    def run():
        x, y = parse(tx), parse(ty)
        conv: dict = {}
        for i, xi in x.winding_components().items():
            for j, yj in y.winding_components().items():
                conv[i + j] = conv.get(i + j, AlgElement()) + \
                    s3core.mul(xi, yj)
        return ({w: e for w, e in conv.items() if e},
                s3core.mul(x, y).winding_components())
    return Item("winding", run, lambda o: o[0] == o[1],
                lambda o: " | ".join(f"{w}: {e.text()}"
                                     for w, e in o[1].items()),
                f"winding ({tx})({ty})")


def _coaction_item(tx, ty) -> Item:
    def run():
        x, y = parse(tx), parse(ty)
        return (hopf.coaction(s3core.mul(x, y)),
                hopf.coaction(x) * hopf.coaction(y))
    return Item("coaction", run, lambda o: o[0] == o[1],
                lambda o: o[0].text(), f"coaction ({tx})({ty})")


def _gluing_item(tx) -> Item:
    def run():
        x = parse(tx)
        return x, gluing.gluing_check(x)
    return Item("gluing", run, lambda o: o[1] is True,
                lambda o: o[0].text(), f"gluing ({tx})")


def _tracial_item(tx, ty) -> Item:
    def run():
        x, y = parse(tx), parse(ty)
        return (chern.trace_functional(s3core.mul(x, y)),
                chern.trace_functional(s3core.mul(y, x)))
    return Item("tracial", run, lambda o: o[0] == o[1],
                lambda o: str(o[0]), f"tracial ({tx})({ty})")


def _cli_normalize_item(spec, tx) -> Item:
    return Item("cli-normalize", lambda: run_cli(["normalize", tx]),
                lambda o: check_cli_normalize(spec, o), lambda o: o[1],
                f"normalize {tx}")


def _cli_trace_item(spec, tx) -> Item:
    return Item("cli-trace", lambda: run_cli(["trace", tx]),
                lambda o: check_cli_trace(spec, o), lambda o: o[1],
                f"trace {tx}")


def _cli_mul_item(tx, ty) -> Item:
    def run():
        code, text = run_cli(["mul", tx, ty])
        # the CLI must agree with the library product of the same inputs
        return code, text, s3core.mul(parse(tx), parse(ty)).json_terms()
    return Item("cli-mul", run, check_cli_mul, lambda o: o[1],
                f"mul ({tx})({ty})")


def wide_exact(seed: int, size: str):
    rng = random.Random(f"wide-exact/{seed}")
    mix = WIDE_MIX[size]
    specs = []

    def elem(coinvariant=False):
        spec = random_spec(rng, coinvariant=coinvariant)
        specs.append(spec)
        return spec

    def text(coinvariant=False):
        return render_spec(elem(coinvariant))

    makers = {
        "associativity": lambda: _assoc_item(text(), text(), text()),
        "star": lambda: _star_item(text(), text()),
        "winding": lambda: _winding_item(text(), text()),
        "coaction": lambda: _coaction_item(text(), text()),
        "gluing": lambda: _gluing_item(text()),
        "tracial": lambda: _tracial_item(text(True), text(True)),
        "cli-normalize": lambda: _cli_normalize_item(
            *(lambda s: (s, render_spec(s)))(elem())),
        "cli-mul": lambda: _cli_mul_item(text(), text()),
        "cli-trace": lambda: _cli_trace_item(
            *(lambda s: (s, render_spec(s)))(elem(True))),
    }
    items = [makers[kind]() for kind, count in mix.items()
             for _ in range(count)]
    rng.shuffle(items)
    traffic = {"mix": mix, **spec_props(specs)}
    return items, traffic


# ---------------------------------------------------------------------------
# numeric-oracle: dense truncated operators at p = 1/2, q = 1/3
# ---------------------------------------------------------------------------

NUMERIC_N = {"full": {"small": 48, "large": 200, "hom": 30},
             "tiny": {"small": 12, "large": 24, "hom": 10}}
NUMERIC_MIX = {"full": {"trace-small": 150, "trace-large": 60,
                        "homomorphism": 100, "relations": 20, "spectrum": 10},
               "tiny": {"trace-small": 3, "trace-large": 3,
                        "homomorphism": 3, "relations": 2, "spectrum": 2}}
FAMILIES = ("rho1theta", "rho2theta")


def _trace_item(kind, spec, N) -> Item:
    x = build_element(spec)
    p, q = float(P_NUM), float(Q_NUM)
    exact = float(exact_trace(spec, P_NUM, Q_NUM))
    return Item(kind, lambda: numrep.numeric_trace(x, N, p, q),
                lambda r: check_numeric_trace(exact, r),
                lambda r: f"{x.text()} N={N} bound={r.tail_bound!r}",
                f"numeric_trace N={N} {render_spec(spec)}")


def _hom_item(sx, sy, family, theta, N) -> Item:
    x, y = build_element(sx), build_element(sy)

    def run():
        rep = numrep.build_rep(family, (theta,), N, float(P_NUM),
                               float(Q_NUM))
        return numrep.homomorphism_defect(x, y, rep)
    return Item("homomorphism", run, lambda d: d <= 1e-10,
                lambda d: f"{x.text()} | {y.text()} {family}",
                f"homomorphism_defect {family} N={N}")


def _relations_item(family, theta, N) -> Item:
    def run():
        rep = numrep.build_rep(family, (theta,), N, float(P_NUM),
                               float(Q_NUM))
        return numrep.relation_defects(rep)
    return Item("relations", run, lambda d: max(d.values()) <= 1e-12,
                lambda d: f"{family} N={N} {sorted(d)}",
                f"relation_defects {family} N={N}")


def _spectrum_item(family, theta, N) -> Item:
    def run():
        rep = numrep.build_rep(family, (theta,), N, float(P_NUM),
                               float(Q_NUM))
        return numrep.spectrum_check(rep)
    return Item("spectrum", run,
                lambda r: r["simple"] and r["max_error"] <= 1e-10,
                lambda r: f"{family} N={N} simple={r['simple']}",
                f"spectrum_check {family} N={N}")


def numeric_oracle(seed: int, size: str):
    # the dense cost of an item depends on its monomials, not on their
    # coefficients, so the monomials come from a fixed stream and the seed
    # draws coefficients, phases and order: every seed does the same work
    shapes = random.Random("numeric-oracle/shapes")
    rng = random.Random(f"numeric-oracle/{seed}")
    sizes, mix = NUMERIC_N[size], NUMERIC_MIX[size]
    specs = []
    items = []
    for kind, N in (("trace-small", sizes["small"]),
                    ("trace-large", sizes["large"])):
        for _ in range(mix[kind]):
            spec = random_spec(shapes, max_flag=3, coinvariant=True,
                               coeff_rng=rng)
            specs.append(spec)
            items.append(_trace_item(kind, spec, N))
    for i in range(mix["homomorphism"]):
        sx = random_spec(shapes, coeff_rng=rng)
        sy = random_spec(shapes, coeff_rng=rng)
        specs += [sx, sy]
        items.append(_hom_item(sx, sy, FAMILIES[i % 2],
                               math.tau * rng.random(),
                               sizes["hom"]))
    for i in range(mix["relations"]):
        N = sizes["small"] if i % 2 else sizes["large"]
        items.append(_relations_item(FAMILIES[(i // 2) % 2],
                                     math.tau * rng.random(), N))
    for i in range(mix["spectrum"]):
        N = sizes["small"] if i % 2 else sizes["large"]
        items.append(_spectrum_item(FAMILIES[(i // 2) % 2],
                                    math.tau * rng.random(), N))
    rng.shuffle(items)
    traffic = {"mix": mix, "N": sizes, "p": str(P_NUM), "q": str(Q_NUM),
               **spec_props(specs)}
    return items, traffic


WORKLOAD_ITEMS = {"deep-exact": deep_exact, "wide-exact": wide_exact,
            "numeric-oracle": numeric_oracle}


def build(workload: str, seed: int, size: str = "full"):
    """The item list and traffic record of one workload and seed."""
    return WORKLOAD_ITEMS[workload](seed, size)
