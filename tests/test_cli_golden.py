"""Byte-identical CLI output on a fixed expression corpus.

``tests/data/cli_golden.json`` holds what each command printed when the
corpus was recorded.  Regenerate it (only when a rendering change is
intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qhopf.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# expressions with division, rational literals and ^* powers
NORMALIZE = [
    "a^* * a",
    "a * a^*",
    "b^* * b",
    "(a + b)^2",
    "a^*^3 * a^3",
    "(a^* * b)^2",
    "3/2*a*b^* - p/(1 - q)*a^*",
    "(1 - a*a^*)^2 * b",
    "1/q * a^2 - q/p * b^*^2",
    "(p + q)/(1 - p*q) * a^2 * b^*",
    "2/3 * (1 - b*b^*) * a + 5/7 * b^*",
    "(1 - q^2)/(1 - q) * a^*^2 * a",
    "1/(1 - 2*q + q^2) * (1 - a*a^*)",
    "f0 * f1^*",
    "f1^* * f1 - 1/2 * f0^2",
]
MUL = [
    ("a^*^2", "a^2"),
    ("b^2 * (1 - a*a^*)", "b^*"),
    ("1/q * a", "q * a^*"),
    ("a + 1/2*b", "a^* - p*b^*"),
    ("(1 - b*b^*)/(1 - p) * b^*^2", "b^3 * a^*"),
]
STAR = [
    "a * b^*",
    "q/(1 - p) * a^2 * b^*",
    "3/4 * (1 - a*a^*) * a^*^2",
    "u^2 - 1/2*u^-1",
    "p/q",
]
TRACE = [
    "1 - a*a^*",
    "a*a^*",
    "(1 - a*a^*)^2 / (1 - q)",
    "b*b^*",
    "f0",
    "f1 * f1^*",
    "1/2*(1 - b*b^*)^3 + a*a^*",
    "3/2*(1 - a*a^*)^3 - 2/q*(1 - a*a^*)",
    "a^*^2 * a^2 + p*(1 - b*b^*)^2",
]


def corpus():
    cases = [["normalize", e] for e in NORMALIZE]
    cases += [["mul", x, y] for x, y in MUL]
    cases += [["star", e] for e in STAR]
    cases += [["trace", e] for e in TRACE]
    cases += [["pairing", "--mu", str(mu)]
              for mu in (1, 2, 3, 4, -1, -2, -3, -4)]
    cases += [["connection", "--k", str(k)] for k in (3, -3)]
    cases += [["idempotent", "--mu", str(mu)] for mu in (2, -2)]
    return cases


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


def load_golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(corpus())))
def test_cli_output_is_byte_identical(index):
    want = load_golden()[index]
    assert run(want["argv"]) == want


def test_golden_file_covers_the_corpus():
    assert [case["argv"] for case in load_golden()] == corpus()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in corpus()], indent=1)
                      + "\n")
