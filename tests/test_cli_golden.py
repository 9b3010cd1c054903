"""Byte-identical CLI output on a fixed expression corpus.

``tests/data/cli_golden.json`` holds what each command printed when the
corpus was recorded.  After adding cases to the corpus, record them with::

    PYTHONPATH=src python tests/test_cli_golden.py

This records only the argv lists missing from the file and keeps the
file in corpus order.  It first reruns every recorded entry; if one now
prints something else, it names that entry, exits 1 and leaves the file
unchanged, so cases added after an engine change cannot re-record the
old ones.  To re-record an entry on purpose (only when a rendering
change is intended), delete it from the file first.
"""

import contextlib
import io
import json
import sys
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
    # flag coefficients that 1 - q^m or 1 - p^n divides, mixed with ones
    # that it does not divide and with a field-valued one
    "(1 - q)*(1 - a*a^*)",
    "(1 - q^2)*(1 - a*a^*)^2 - (1 - p)*(1 - b*b^*)",
    "(1 - q)*(1 - a*a^*) + (1 - b*b^*)",
    "(1 - q^3)/(1 - p)*(1 - a*a^*)^3",
]
WINDING = [
    "a + b*b^*",
    "(a + b^*)^3",
    "3/2*a*b^* - p/(1 - q)*a^*^2 + (1 - a*a^*)*b",
    "f1 * f1^* + 2*f0",
]
COACTION = [
    "a",
    "a^* * b^2 - q*(1 - a*a^*)",
    "1/(1 - q) * b^*^2 * a + p",
    "f1^* * f0",
]
GLUING = [
    "a*b + 1",
    "(1 - a*a^*)^2 * b^*^3",
    "(1 - b*b^*) * a^2 + p/q * a^* * b",
    "f0 * f1^* - q",
]


def corpus():
    cases = [["normalize", e] for e in NORMALIZE]
    cases += [["mul", x, y] for x, y in MUL]
    cases += [["star", e] for e in STAR]
    cases += [["trace", e] for e in TRACE]
    cases += [["pairing", "--mu", str(mu)]
              for mu in (1, 2, 3, 4, -1, -2, -3, -4,
                         6, 7, 8, 9, -6, -7, -8, -9, 12, -12)]
    cases += [["connection", "--k", str(k)]
              for k in (3, -3, 8, -8, 16, -16)]
    cases += [["idempotent", "--mu", str(mu)] for mu in (2, -2)]
    cases += [["winding", e] for e in WINDING]
    cases += [["coaction", e] for e in COACTION]
    cases += [["gluing-check", e] for e in GLUING]
    return cases


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


def load_golden():
    return json.loads(GOLDEN.read_text())


def record():
    """The golden entries with the missing ones recorded, or exit 1."""
    old = {json.dumps(case["argv"]): case
           for case in (load_golden() if GOLDEN.exists() else [])}
    changed = [case["argv"] for case in old.values()
               if run(case["argv"]) != case]
    if changed:
        raise SystemExit("recorded output changed for: " + "; ".join(
            " ".join(argv) for argv in changed))
    return [old.get(json.dumps(argv)) or run(argv) for argv in corpus()]


@pytest.mark.parametrize("index", range(len(corpus())))
def test_cli_output_is_byte_identical(index):
    want = load_golden()[index]
    assert run(want["argv"]) == want


def test_golden_file_covers_the_corpus():
    assert [case["argv"] for case in load_golden()] == corpus()


def test_recording_adds_only_the_missing_entries(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    kept, added = ["star", "p/q"], ["star", "a * b^*"]
    monkeypatch.setattr(module, "corpus", lambda: [added, kept])
    monkeypatch.setattr(module, "GOLDEN", tmp_path / "golden.json")
    entry = run(kept)
    module.GOLDEN.write_text(json.dumps([entry]))
    assert record() == [run(added), entry]
    # a recorded entry whose output changed stops the recording
    module.GOLDEN.write_text(json.dumps([dict(entry, stdout="stale\n")]))
    with pytest.raises(SystemExit, match="changed for: star p/q$"):
        record()


if __name__ == "__main__":
    cases = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
