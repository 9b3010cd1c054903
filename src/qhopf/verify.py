"""Orchestrated verification suites: the one statement of every check.

Each suite in ``SUITES`` takes the keyword-only ``(p_val, q_val, N,
seed)`` of the ``verify`` command, ignores those it does not use, and
keeps its sample counts and sizes as constants.  It returns a
JSON-serializable report of the shape

    {"suite": str, "params": dict, "pass": bool, "elapsed_s": float,
     "checks": [...]}

with one entry per verified identity and ``params`` recording what it
ran with.  The suites are side-effect free and draw random data from
seeded generators; a check draws all its samples before it tests any,
so a failed check leaves the samples of later checks as they were in a
passing run.  The acceptance tests read these reports.

The numeric suites (chern, numeric, classical) import ``numrep``, and
with it numpy, when they run; the symbolic suites never load it.
"""

from __future__ import annotations

import itertools
import random
import time

from . import chern, galois, gluing, hopf, s3core
from .scalars import ONE, P, Q, ParamScalar, scalar
from .s3core import AlgElement, BasisMonomial, mul

__all__ = [
    "random_element",
    "random_coinvariant",
    "suite_algebra",
    "suite_gluing",
    "suite_galois",
    "suite_chern",
    "suite_numeric",
    "suite_classical",
    "SUITES",
]


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------

def _random_coeff(rng: random.Random) -> ParamScalar:
    c = scalar(rng.randint(-3, 3))
    if rng.random() < 0.4:
        c = c + P * rng.randint(-2, 2)
    if rng.random() < 0.4:
        c = c + Q * rng.randint(-2, 2)
    if c.is_zero():
        c = ONE
    return c


def random_element(rng: random.Random, max_shift: int = 2, max_flag: int = 2,
                   max_terms: int = 3) -> AlgElement:
    """A random bounded-degree element with small exact coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mu = rng.randint(-max_shift, max_shift)
        nu = rng.randint(-max_shift, max_shift)
        m = rng.randint(0, max_flag)
        n = 0 if m else rng.randint(0, max_flag)
        terms[BasisMonomial(mu, m, n, nu)] = _random_coeff(rng)
    return AlgElement(terms)


def random_coinvariant(rng: random.Random, max_shift: int = 2,
                       max_flag: int = 3, max_terms: int = 3) -> AlgElement:
    """A random element of the coinvariant subalgebra (winding zero)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mu = rng.randint(-max_shift, max_shift)
        m = rng.randint(0, max_flag)
        n = 0 if m else rng.randint(0, max_flag)
        terms[BasisMonomial(mu, m, n, mu)] = _random_coeff(rng)
    return AlgElement(terms)


def _check(name: str, ok: bool, **extra) -> dict:
    out = {"check_name": name, "pass": bool(ok)}
    out.update(extra)
    return out


def _failed_check(name: str, failures: list, **extra) -> dict:
    # a check that passes when nothing failed; a failed one lists its
    # failures as reproducers
    out = _check(name, not failures, **extra)
    if failures:
        out["failures"] = failures
    return out


def _finish(suite: str, checks: list, t0: float, **params) -> dict:
    return {
        "suite": suite,
        "params": params,
        "pass": all(c["pass"] for c in checks),
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "checks": checks,
    }


def _trace_agreement(pairs, N: int, p_val: float, q_val: float):
    """(pass, worst error, largest bound) of the truncated traces of the
    (element, exact trace) pairs against the exact traces at (p, q); a
    bound is the truncation tail plus a flat 1e-9 for float rounding."""
    from . import numrep
    ok, worst, max_bound = True, 0.0, 0.0
    for x, exact in pairs:
        got = numrep.numeric_trace(x, N, p_val, q_val)
        err = abs(got.value - exact.evaluate(p_val, q_val))
        bound = got.tail_bound + 1e-9
        worst, max_bound = max(worst, err), max(max_bound, bound)
        if err > bound:
            ok = False
    return ok, worst, max_bound


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(*, p_val: float, q_val: float, N: int, seed: int) -> dict:
    """Defining relations, associativity, the involution, and the grading."""
    triples, pairs = 500, 500
    t0 = time.perf_counter()
    rng = random.Random(seed)
    a, ast = AlgElement.generator("a"), AlgElement.generator("a*")
    b, bst = AlgElement.generator("b"), AlgElement.generator("b*")
    one = AlgElement.one()
    checks = [
        _check("relation a*a - q aa* = 1-q",
               (mul(ast, a) - Q * mul(a, ast) - (ONE - Q) * one).is_zero()),
        _check("relation b*b - p bb* = 1-p",
               (mul(bst, b) - P * mul(b, bst) - (ONE - P) * one).is_zero()),
        _check("relation ab = ba",
               (mul(a, b) - mul(b, a)).is_zero()
               and (mul(ast, b) - mul(b, ast)).is_zero()),
        _check("relation (1-aa*)(1-bb*) = 0",
               mul(one - mul(a, ast), one - mul(b, bst)).is_zero()),
    ]
    f0 = s3core.iota_image("f0")
    f1 = s3core.iota_image("f1")
    f1s = s3core.iota_image("f1*")
    base_rels = {
        "base relation f0 = f0*": f0.star() - f0,
        "base relation f1*f1 - q f1f1* = (p-q)f0 + 1-p":
            mul(f1s, f1) - Q * mul(f1, f1s) - (P - Q) * f0 - (ONE - P) * one,
        "base relation f0f1 - p f1f0 = (1-p)f1":
            mul(f0, f1) - P * mul(f1, f0) - (ONE - P) * f1,
        "base relation (1-f0)(f1f1* - f0) = 0":
            mul(one - f0, mul(f1, f1s) - f0),
    }
    for name, val in base_rels.items():
        checks.append(_check(name, val.is_zero()))

    failures = []
    for i in range(triples):
        x, y, z = (random_element(rng) for _ in range(3))
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            failures.append({"sample": i, "x": x.text(), "y": y.text(),
                             "z": z.text()})
    checks.append(_failed_check("associativity on random triples",
                                failures, count=triples))

    ok = True
    ok_inv = True
    ok_wind = True
    for _ in range(pairs):
        x, y = random_element(rng), random_element(rng)
        if mul(x, y).star() != mul(y.star(), x.star()):
            ok = False
        if x.star().star() != x:
            ok_inv = False
        conv: dict[int, AlgElement] = {}
        for i, xi in x.winding_components().items():
            for j, yj in y.winding_components().items():
                w = i + j
                conv[w] = conv.get(w, AlgElement.zero()) + mul(xi, yj)
        if {w: e for w, e in conv.items() if e} != mul(x, y).winding_components():
            ok_wind = False
    checks.append(_check("involution is anti-multiplicative", ok,
                         count=pairs))
    checks.append(_check("involution has order two", ok_inv, count=pairs))
    checks.append(_check("winding components multiply by convolution",
                         ok_wind, count=pairs))

    x = random_element(rng)
    checks.append(_check("unit laws",
                         mul(x, one) == x and mul(one, x) == x))
    samples = [(random_element(rng), random_element(rng)) for _ in range(100)]
    ok = all(hopf.coaction_is_coassociative(x) and hopf.counit_law_holds(y)
             for x, y in samples[:50])
    ok2 = all(hopf.coaction_is_multiplicative(x, y) for x, y in samples[50:])
    checks.append(_check("coaction is coassociative with counit law", ok,
                         count=50))
    checks.append(_check("coaction is multiplicative", ok2, count=50))
    return _finish("algebra", checks, t0, seed=seed, triples=triples,
                   pairs=pairs)


def _basis_monomials_upto(degree: int):
    for mu, nu in itertools.product(range(-degree, degree + 1), repeat=2):
        rest = degree - abs(mu) - abs(nu)
        if rest < 0:
            continue
        yield BasisMonomial(mu, 0, 0, nu)
        for m in range(1, rest + 1):
            yield BasisMonomial(mu, m, 0, nu)
        for n in range(1, rest + 1):
            yield BasisMonomial(mu, 0, n, nu)


def suite_gluing(*, p_val: float, q_val: float, N: int, seed: int) -> dict:
    """Chart maps, boundary matching, and trivialization laws."""
    degree, samples = 6, 100
    t0 = time.perf_counter()
    rng = random.Random(seed)
    monos = list(_basis_monomials_upto(degree))
    ok = all(gluing.gluing_check(AlgElement.from_monomial(t)) for t in monos)
    checks = [_check(f"gluing on all basis monomials of degree <= {degree}",
                     ok, count=len(monos))]
    ok = all(map(gluing.gluing_check,
                 [random_element(rng) for _ in range(samples)]))
    checks.append(_check("gluing on random elements", ok, count=samples))
    legs = ("p",) * (samples // 2) + ("q",) * (samples // 2)
    ok = all(map(gluing.trivialization_colinear,
                 [random_element(rng) for _ in legs], legs))
    checks.append(_check("charts intertwine coaction and coproduct", ok,
                         count=samples))
    ok = all(map(gluing.trivialization_over_base,
                 [random_coinvariant(rng) for _ in legs], legs))
    checks.append(_check("charts send the base into circle power zero", ok,
                         count=samples))
    f0 = s3core.iota_image("f0")
    f1 = s3core.iota_image("f1")
    x = gluing.disc_generator("p")
    xs = gluing.disc_generator("p", starred=True)
    want_f0_p = gluing.TrivializedElement(
        "p", {(t, 0): c for t, c in (x * xs).terms.items()})
    checks.append(_check(
        "chart identification of the base generators",
        gluing.chi(f0, "p") == want_f0_p
        and gluing.chi(f0, "q") == gluing.TrivializedElement.one("q")
        and gluing.chi(f1, "p") == gluing.TrivializedElement(
            "p", {((1, 0), 0): ONE})
        and gluing.chi(f1, "q") == gluing.TrivializedElement(
            "q", {((1, 0), 0): ONE})))
    onep = gluing.DiscElement.one("p")
    checks.append(_check(
        "boundary kills the disc flag and is unital",
        gluing.boundary(x) == hopf.LaurentElement.u_power(1)
        and gluing.boundary(onep - x * xs).is_zero()
        and gluing.boundary(xs * x) == hopf.LaurentElement.one()))
    return _finish("gluing", checks, t0, seed=seed, degree=degree,
                   samples=samples)


def suite_galois(*, p_val: float, q_val: float, N: int, seed: int) -> dict:
    """Recursion vs the served closed form, and all connection identities."""
    k_max = 8
    t0 = time.perf_counter()
    checks = []
    for sign, seed_term, powers in ((1, galois._SEED_PLUS, "positive"),
                                    (-1, galois._SEED_MINUS, "negative")):
        # walk the sandwich recursion from the unit, independently of
        # the served values; a failure is served minus recursion
        failures, ell = [], galois.TensorElement.unit()
        for n in range(1, k_max + 1):
            ell = galois._sandwich(seed_term, ell)
            diff = galois.strong_connection(sign * n) - ell
            if diff:
                failures.append({"k": n, "difference": diff.text()})
        checks.append(_failed_check(
            f"recursion equals closed form ({powers} powers)", failures,
            count=k_max))
    defects = {k: galois.connection_defects(galois.strong_connection(k), k)
               for k in range(-k_max, k_max + 1)}
    for ident in ("lifted_can", "right_colinearity", "left_colinearity",
                  "counit_law"):
        checks.append(_failed_check(
            f"connection identity: {ident}",
            [{"k": k, "difference": d[ident]}
             for k, d in defects.items() if ident in d], k_max=k_max))
    # the partition identities are the counit laws of the nonzero powers
    failures = [{"k": n, "side": side, "difference": d["counit_law"]}
                for n in range(1, k_max + 1)
                for side, d in (("+", defects[n]), ("-", defects[-n]))
                if "counit_law" in d]
    checks.append(_failed_check("partition identities (both parameter sides)",
                                failures, count=2 * k_max))
    ok = not any("lifted_can" in defects[k] for k in range(-6, 7) if k)
    checks.append(_check("freeness witnesses for |k| <= 6", ok))
    return _finish("galois", checks, t0, k_max=k_max)


def suite_chern(*, p_val: float, q_val: float, N: int, seed: int) -> dict:
    """Idempotents, the exact trace, and the pairing."""
    n_max, tracial_pairs = 5, 200
    t0 = time.perf_counter()
    checks = []
    for n in range(1, n_max + 1):
        for mu in (-n, n):
            e = chern.idempotent(mu)
            checks.append(_check(
                f"idempotent squared, winding {mu:+d}",
                (e @ e - e).is_zero() and e.all_coinvariant(),
                size=e.shape[0]))
    one = AlgElement.one()
    a, ast = AlgElement.generator("a"), AlgElement.generator("a*")
    beta = one - mul(a, ast)
    checks.append(_check("trace of the unit is 0",
                         chern.trace_functional(one).is_zero()))
    checks.append(_check("trace of 1-aa* is 1/(1-q)",
                         chern.trace_functional(beta) ==
                         ONE / (ONE - Q)))
    checks.append(_check(
        "trace of (1-bb*)^2 is -1/(1-p^2)",
        chern.trace_functional(
            AlgElement.from_monomial(BasisMonomial(0, 0, 2, 0))) ==
        -(ONE / (ONE - P * P))))
    val = chern.pairing(-1)
    checks.append(_check("pairing at winding -1 equals -1",
                         val == -(ONE), value=str(val)))
    pair_values = {}
    ok_int = True
    for mu in range(-3, 4):
        if mu == 0:
            continue
        v = chern.pairing(mu)
        pair_values[mu] = str(v)
        ok_int = ok_int and v.is_integer()
    checks.append(_check("pairings are integer constants for |mu| <= 3",
                         ok_int, values=pair_values))

    rng = random.Random(seed)
    failures = []
    for i in range(tracial_pairs):
        x = random_coinvariant(rng)
        y = random_coinvariant(rng)
        if chern.trace_functional(mul(x, y)) != chern.trace_functional(
                mul(y, x)):
            failures.append({"sample": i, "x": x.text(), "y": y.text()})
    checks.append(_failed_check(
        "trace is tracial on random coinvariant pairs", failures,
        count=tracial_pairs))

    xs = [random_coinvariant(rng) for _ in range(40)]
    ok, worst, max_bound = _trace_agreement(
        [(x, chern.trace_functional(x)) for x in xs], N, p_val, q_val)
    checks.append(_check(
        "exact trace matches the truncated operator trace",
        ok, count=40, worst_error=worst, max_bound=max_bound, N=N))
    # the pairing values agree with truncated traces of the idempotents
    ok, worst, _ = _trace_agreement(
        [(chern.idempotent(mu).trace(), chern.pairing(mu))
         for mu in (-2, -1, 1, 2)], N, p_val, q_val)
    checks.append(_check("pairings agree with truncated numeric traces", ok,
                         worst_error=worst))
    return _finish("chern", checks, t0, n_max=n_max, p=p_val, q=q_val,
                   N=N, seed=seed)


def suite_numeric(*, p_val: float, q_val: float, N: int, seed: int) -> dict:
    """Truncated representations against every symbolic claim."""
    from . import numrep
    truncations, phases_per_family = (10, 50, 200), 5
    hom_pairs, faithfulness_count = 200, 100
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    worst = 0.0
    for n in truncations:
        for family in ("rho1theta", "rho2theta"):
            for _ in range(phases_per_family):
                theta = 2.0 * 3.141592653589793 * rng.random()
                rep = numrep.build_rep(family, (theta,), n, p_val, q_val)
                worst = max(worst, max(numrep.relation_defects(rep).values()))
    rep = numrep.build_rep("classical", (0.37, 2.1), 2, p_val, q_val)
    worst = max(worst, max(numrep.relation_defects(rep).values()))
    checks.append(_check("defining relations hold on safe blocks",
                         worst <= 1e-12, defect=worst, tolerance=1e-12,
                         truncations=list(truncations)))

    ok = True
    worst = 0.0
    for n in truncations:
        for family in ("rho1theta", "rho2theta"):
            rep = numrep.build_rep(family, (0.0,), n, p_val, q_val)
            res = numrep.spectrum_check(rep)
            worst = max(worst, res["max_error"])
            ok = ok and res["simple"] and res["max_error"] <= 1e-10
    checks.append(_check("flag spectra are the geometric sequences", ok,
                         defect=worst, tolerance=1e-10))

    hom_n = 30
    rep1 = numrep.build_rep("rho1theta", (0.9,), hom_n, p_val, q_val)
    rep2 = numrep.build_rep("rho2theta", (2.2,), hom_n, p_val, q_val)
    worst = 0.0
    for _ in range(hom_pairs):
        x, y = random_element(rng), random_element(rng)
        worst = max(worst, numrep.homomorphism_defect(x, y, rep1),
                    numrep.homomorphism_defect(x, y, rep2))
    checks.append(_check("matrix images respect multiplication", worst <= 1e-10,
                         defect=worst, tolerance=1e-10, count=hom_pairs))

    xs = [AlgElement.from_monomial(BasisMonomial(mu, m, n_exp, mu))
          for mu in range(-3, 4)
          for m, n_exp in [(0, 0)] + [(m, 0) for m in range(1, 7)] +
          [(0, n) for n in range(1, 7)]]
    ok, worst, _ = _trace_agreement(
        [(x, chern.trace_functional(x)) for x in xs], N, p_val, q_val)
    checks.append(_check(
        "truncated traces match the exact trace on basis monomials", ok,
        defect=worst, count=len(xs), N=N))

    res = numrep.mvn_witness_check(10)
    checks.append(_check(
        "shift-tensor-projection witness identities",
        res["max_defect"] <= 1e-12 and res["projection_rank"] == 1
        and res["partial_isometry_defect"] <= 1e-12,
        defect=res["max_defect"], tolerance=1e-12))

    ok = True
    worst_defect = 0.0
    for family, gen, bound in (("rho2theta", "a", 1 - q_val),
                               ("rho1theta", "b", 1 - p_val),
                               ("rho1theta", "a", 1 - q_val)):
        rep = numrep.build_rep(family, (0.4,), 100, p_val, q_val)
        res = numrep.polar_isometry_check(rep, gen)
        worst_defect = max(worst_defect, res["isometry_defect"])
        if res["min_eig"] < bound - 1e-10 or res["isometry_defect"] > 1e-10:
            ok = False
    checks.append(_check("polar parts are isometries above the gap", ok,
                         defect=worst_defect, tolerance=1e-10))

    found = 0
    tried = 0
    for i in range(faithfulness_count):
        x = random_element(rng)
        if x.is_zero():
            continue
        tried += 1
        if numrep.faithfulness_probe(x, seed=seed + i):
            found += 1
    checks.append(_check("separation probe finds witnesses for nonzero "
                         "elements", found == tried, found=found,
                         count=tried))
    return _finish("numeric", checks, t0, p=p_val, q=q_val, N=N, seed=seed)


def suite_classical(*, p_val: float, q_val: float, N: int, seed: int) -> dict:
    """Round-trip and equivariance of the classical coordinate maps."""
    from . import numrep
    samples = 1000
    t0 = time.perf_counter()
    res = numrep.classical_maps_check(samples, seed=seed)
    checks = [_check("coordinate maps are mutually inverse circle maps",
                     res["max_error"] <= 1e-12, defect=res["max_error"],
                     tolerance=1e-12, samples=samples)]
    return _finish("classical", checks, t0, samples=samples, seed=seed)


SUITES = {
    "algebra": suite_algebra,
    "gluing": suite_gluing,
    "galois": suite_galois,
    "chern": suite_chern,
    "numeric": suite_numeric,
    "classical": suite_classical,
}
