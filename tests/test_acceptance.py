"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criteria 2-9 read the reports of one ``qhopf verify all --seed 7`` run
at the default parameters: each looks its checks up by name and asserts
that they passed at the tolerance and count it states.  Each test prints
a single PASS/FAIL line (run pytest with -s to see them alongside the
assertions).
"""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest

from qhopf import chern, cli
from qhopf.scalars import ONE


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def suites():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--seed", "7"])
    result = json.loads(out.getvalue())
    assert code == 0
    assert result["params"] == {"p": "1/2", "q": "1/3", "N": 300, "seed": 7}
    return {r["suite"]: r for r in result["reports"]}


def checks(suites, suite, *names):
    """The named checks of one suite report; a missing name fails."""
    by_name = {c["check_name"]: c for c in suites[suite]["checks"]}
    missing = [n for n in names if n not in by_name]
    assert not missing, f"{suite} reports no check {missing}"
    return [by_name[n] for n in names]


def passed(found, **stated):
    """All checks passed and report the stated values (tolerance, count)."""
    return all(c["pass"] and all(c.get(k) == v for k, v in stated.items())
               for c in found)


def test_criterion_1_pairing_reproduction():
    val = chern.pairing(-1)
    exact = (val == -ONE) and val.is_constant()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qhopf.cli", "pairing", "--mu", "-1"],
        capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - t0
    cli_ok = proc.returncode == 0 and '"value": "-1"' in proc.stdout \
        and '"integer": true' in proc.stdout
    ok = exact and cli_ok and elapsed < 1.0
    report(1, ok,
           f"pairing(-1) = {val} exactly, constant in p and q; CLI "
           f"round-trip {elapsed:.3f}s (< 1s)")


def test_criterion_2_strong_connection_equivalence(suites):
    found = checks(suites, "galois",
                   "recursion equals closed form (positive powers)",
                   "recursion equals closed form (negative powers)",
                   "connection identity: lifted_can",
                   "partition identities (both parameter sides)")
    elapsed = suites["galois"]["elapsed_s"]
    ok = passed(found[:2], count=8) and passed([found[2]], k_max=8)
    ok &= passed([found[3]], count=16)
    report(2, ok and elapsed < 30.0,
           f"recursion = closed form, lifted canonical map, and partition "
           f"identities for |k| <= 8 in {elapsed:.2f}s (< 30s)")


def test_criterion_3_idempotency(suites):
    found = checks(suites, "chern", *(f"idempotent squared, winding {mu:+d}"
                                      for n in range(1, 6) for mu in (-n, n)))
    elapsed = suites["chern"]["elapsed_s"]
    report(3, passed(found) and elapsed < 60.0,
           f"E^2 = E with coinvariant entries for windings up to 5 "
           f"in {elapsed:.2f}s (< 60s)")


def test_criterion_4_trace_anchors(suites):
    ok = passed(checks(suites, "chern", "trace of the unit is 0",
                       "trace of 1-aa* is 1/(1-q)"))
    (mono,) = checks(
        suites, "numeric",
        "truncated traces match the exact trace on basis monomials")
    ok &= passed([mono], count=91, N=300)
    report(4, ok,
           f"tr(1) = 0 and tr(1-aa*) = 1/(1-q) exactly; {mono['count']} basis "
           f"monomials match the N=300 operator trace at (1/2, 1/3), "
           f"worst error {mono['defect']:.2e}")


def test_criterion_5_relations_and_representations(suites):
    ok = passed(checks(
        suites, "algebra", "relation a*a - q aa* = 1-q",
        "relation b*b - p bb* = 1-p", "relation ab = ba",
        "relation (1-aa*)(1-bb*) = 0", "base relation f0 = f0*",
        "base relation f1*f1 - q f1f1* = (p-q)f0 + 1-p",
        "base relation f0f1 - p f1f0 = (1-p)f1",
        "base relation (1-f0)(f1f1* - f0) = 0"))
    (rel,) = checks(suites, "numeric",
                    "defining relations hold on safe blocks")
    ok &= passed([rel], tolerance=1e-12, truncations=[10, 50, 200])
    report(5, ok,
           f"all defining and base relations normalize to zero; truncated "
           f"representation defects <= 1e-12 (worst {rel['defect']:.2e}) for "
           f"N in (10, 50, 200), 5 phases per family")


def test_criterion_6_algebra_soundness(suites):
    assoc, star = checks(suites, "algebra", "associativity on random triples",
                         "involution is anti-multiplicative")
    ok = passed([assoc, star], count=500)
    ok &= suites["algebra"]["params"] == {"seed": 7, "triples": 500,
                                          "pairs": 500}
    hom, sep = checks(suites, "numeric",
                      "matrix images respect multiplication",
                      "separation probe finds witnesses for nonzero elements")
    ok &= passed([hom], tolerance=1e-10, count=200) and passed([sep])
    report(6, ok,
           f"associativity ({assoc['count']} triples) and "
           f"anti-multiplicativity ({star['count']} pairs) exact; "
           f"homomorphism oracle worst defect {hom['defect']:.2e} <= 1e-10 "
           f"on {hom['count']} pairs; separation witnesses "
           f"{sep['found']}/{sep['count']}")


def test_criterion_7_gluing(suites):
    monos, rand, colin = checks(
        suites, "gluing", "gluing on all basis monomials of degree <= 6",
        "gluing on random elements",
        "charts intertwine coaction and coproduct")
    ok = passed([monos], count=377) and passed([rand, colin], count=100)
    report(7, ok,
           f"gluing matched on {monos['count']} basis monomials (degree <= 6) "
           f"and {rand['count']} random elements; chart colinearity exact "
           f"on {colin['count']} random elements")


def test_criterion_8_classical_limit(suites):
    (res,) = checks(suites, "classical",
                    "coordinate maps are mutually inverse circle maps")
    report(8, passed([res], tolerance=1e-12, samples=1000),
           f"{res['samples']} seeded samples: round trips, membership, and "
           f"equivariance within {res['defect']:.2e} (<= 1e-12)")


def test_criterion_9_operator_witnesses(suites):
    mvn, pol = checks(suites, "numeric",
                      "shift-tensor-projection witness identities",
                      "polar parts are isometries above the gap")
    ok = passed([mvn], tolerance=1e-12) and passed([pol], tolerance=1e-10)
    report(9, ok,
           f"shift-tensor-projection defects {mvn['defect']:.2e} "
           f"(<= 1e-12, N=10); polar isometries of a and b above the gap "
           f"1-q resp. 1-p, defect {pol['defect']:.2e} (<= 1e-10, N=100)")
