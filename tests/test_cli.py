"""Command line interface: reports, JSON schema, and exit codes."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qhopf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "a^* * a")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["result"]["text"] == "1 - q*(1 - a a^*)"
    assert report["result"]["terms"] == [
        {"mu": 0, "m": 0, "n": 0, "nu": 0, "coeff": "1"},
        {"mu": 0, "m": 1, "n": 0, "nu": 0, "coeff": "-q"},
    ]


def test_pairing_minus_one(capsys):
    code, out, _ = run_cli(capsys, "pairing", "--mu", "-1")
    assert code == 0
    report = json.loads(out)
    assert report["mu"] == -1
    assert report["value"] == "-1"
    assert report["integer"] is True


def test_trace_command(capsys):
    code, out, _ = run_cli(capsys, "trace", "1 - a*a^*")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == "1/(1 - q)"
    assert report["result"]["integer"] is False


def test_mul_and_star_and_winding(capsys):
    code, out, _ = run_cli(capsys, "mul", "a", "b")
    assert json.loads(out)["result"]["text"] == "a b"
    code, out, _ = run_cli(capsys, "star", "a * b")
    assert json.loads(out)["result"]["text"] == "a^* b^*"
    code, out, _ = run_cli(capsys, "winding", "a + b*b^*")
    report = json.loads(out)
    assert set(report["result"]) == {"0", "1"}


def test_coaction_and_gluing(capsys):
    code, out, _ = run_cli(capsys, "coaction", "a")
    report = json.loads(out)
    assert report["result"]["terms"] == [
        {"mu": 1, "m": 0, "n": 0, "nu": 0, "u_power": 1, "coeff": "1"}]
    code, out, _ = run_cli(capsys, "gluing-check", "a*b + 1")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_connection_and_idempotent(capsys):
    code, out, _ = run_cli(capsys, "connection", "--k", "1")
    report = json.loads(out)
    assert report["k"] == 1
    assert len(report["result"]) == 2
    code, out, _ = run_cli(capsys, "idempotent", "--mu", "-1")
    report = json.loads(out)
    assert report["size"] == 2
    assert report["text"][0][0] == "1 - (1 - a a^*)"


def test_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "normalize", "a + * b")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "trace", "a")  # not coinvariant
    assert code == 2
    code, _, _ = run_cli(capsys, "idempotent", "--mu", "0")
    assert code == 2
    # a circle-valued input and a non-integer negative exponent
    for text, message in (("u", "expected a sphere-algebra expression, "
                                "got one in u"),
                          ("a^-x", "expected 'INT'")):
        code, out, err = run_cli(capsys, "normalize", text)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert message in report["error"] and "traceback" not in report
    assert main(["unknown-command"]) == 2


@pytest.mark.parametrize("text, pos", [("1" * 5000, 0),
                                       ("a + 2*" + "7" * 41, 6),
                                       ("a^" + "3" * 5000, 2)],
                         ids=["literal", "factor", "exponent"])
def test_long_numbers_fail_the_budget_at_their_position(capsys, text, pos):
    # a literal (or exponent) with more digits than 2^128 is rejected
    # before int() converts it, with its position
    code, out, err = run_cli(capsys, "normalize", text)
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]
    assert "exceeds the" in message and "budget" in message
    assert message.endswith(f"(at position {pos})")
    # 39 digits can still fit the parameter budget
    code, out, _ = run_cli(capsys, "normalize", "9" * 38)
    assert code == 0 and json.loads(out)["result"]["text"] == "9" * 38


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "galois")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["reports"][0]["suite"] == "galois"
    names = [c["check_name"] for c in report["reports"][0]["checks"]]
    assert any("closed form" in n for n in names)


@pytest.mark.parametrize("suite, check, operands", [
    ("algebra", "associativity on random triples", "xyz"),
    ("chern", "trace is tracial on random coinvariant pairs", "xy"),
])
def test_verify_lists_a_failed_sample_as_text(capsys, monkeypatch, suite,
                                              check, operands):
    # the sample loop is the first draw of the suite's seeded generator;
    # a product perturbed at sample 4 fails that check alone, and its
    # failure lists the sample and operands that read back to the sample,
    # and the difference of the two sides, which reads back to what the
    # bump adds: bump z to (xy)z, the bump's trace to tr(xy)
    from qhopf import chern, verify
    from qhopf.exprs import evaluate
    from qhopf.s3core import AlgElement, BasisMonomial
    rng = random.Random(7)
    draw = verify.random_element if suite == "algebra" else \
        verify.random_coinvariant
    samples = [[draw(rng) for _ in operands] for _ in range(5)]
    x, y = samples[4][:2]
    assert x != y
    bump = AlgElement.one() if suite == "algebra" else \
        AlgElement.from_monomial(BasisMonomial(0, 1, 0, 0))
    real = verify.mul
    monkeypatch.setattr(verify, "mul", lambda u, v: real(u, v) + bump
                        if (u, v) == (x, y) else real(u, v))
    code, out, _ = run_cli(capsys, "verify", suite, "--seed", "7")
    report = json.loads(out)
    assert code == 1 and report["failures"] == [check]
    failures, = [c["failures"] for c in report["reports"][0]["checks"]
                 if c["check_name"] == check]
    assert [f["sample"] for f in failures] == [4]
    assert [evaluate(failures[0][n]) for n in operands] == samples[4]
    added = real(bump, samples[4][2]) if suite == "algebra" else \
        chern.trace_functional(bump)
    assert not added.is_zero()
    assert evaluate(failures[0]["difference"]) == added


@pytest.mark.parametrize("suite, target, check", [
    ("gluing", "qhopf.gluing.gluing_check", "gluing on random elements"),
    ("algebra", "qhopf.hopf.coaction_is_coassociative",
     "coaction is coassociative with counit law"),
])
def test_a_failed_check_draws_as_many_samples(monkeypatch, suite, target,
                                              check):
    # every check draws its samples before it checks them, so a failure
    # changes neither the number of draws nor the later checks' samples
    from qhopf import verify
    calls = {}
    for name in ("random_element", "random_coinvariant"):
        def counted(*args, _name=name, _real=getattr(verify, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(verify, name, counted)
    params = {"p_val": 0.5, "q_val": 1 / 3, "N": 300, "seed": 7}
    passing = verify.SUITES[suite](**params)
    drawn, calls = calls, {}
    monkeypatch.setattr(target, lambda *args: False)
    failing = verify.SUITES[suite](**params)
    assert calls == drawn
    names = [c["check_name"] for c in passing["checks"]]
    later = names.index(check) + 1
    assert passing["pass"] and not failing["pass"]
    assert not failing["checks"][later - 1]["pass"]
    assert failing["checks"][later:] == passing["checks"][later:]


def test_verify_text_mode_and_seed_env(capsys, monkeypatch):
    # --text before the command holds too: the subparser must not reset it
    monkeypatch.setenv("QHOPF_SEED", "123")
    for argv in (["verify", "classical", "--text"],
                 ["--text", "verify", "classical"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "suite classical: PASS" in out
        assert "seed" in out and "123" in out


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "qhopf.cli", "pairing", "--mu", "-1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["value"] == "-1"


def test_package_import_does_not_load_numpy():
    # numpy is needed only by the operator models, which the numeric
    # suites import when they run; verify and numrep load only for the
    # verify command, and no command needs dataclasses or inspect (which
    # pull in ast, dis and tokenize): each would cost start-up time.
    # The package and the CLI load no engine module until a command
    # runs, and each command loads only the modules it calls
    unneeded = ["numpy", "dataclasses", "inspect", "qhopf.verify",
                "qhopf.numrep"]
    code = ("import json, sys, qhopf, qhopf.cli\n"
            "from qhopf.cli import main\n"
            "def loaded(names):\n"
            "    return [m for m in names if m in sys.modules]\n"
            "at_import = sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'qhopf')\n"
            "assert main(['pairing', '--mu', '-1']) == 0\n"
            "after_pairing = loaded(['qhopf.exprs', 'qhopf.gluing',\n"
            "                        'qhopf.verify', 'qhopf.numrep'])\n"
            "assert main(['normalize', 'a^* * a']) == 0\n"
            f"unneeded = {unneeded!r}\n"
            "commands = loaded(unneeded)\n"
            "assert main(['verify', 'algebra']) == 0\n"
            "print(json.dumps([at_import, after_pairing, commands,\n"
            "                  loaded(unneeded)]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, after_pairing, commands, verify = json.loads(
        proc.stdout.strip().splitlines()[-1])
    assert at_import == ["qhopf", "qhopf.cli"]
    assert after_pairing == []
    assert commands == []
    assert verify == ["qhopf.verify"]   # the guard sees a loaded module

    # an expression command, alone in its process, loads the parser but
    # none of the modules behind the connection, the pairing or the charts
    code = ("import json, sys\n"
            "from qhopf.cli import main\n"
            "assert main(['normalize', 'a^* * a']) == 0\n"
            "print(json.dumps([m for m in ('qhopf.exprs', 'qhopf.galois',\n"
            "    'qhopf.chern', 'qhopf.gluing') if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["qhopf.exprs"]

    # the trace reads one coefficient per flag: it loads the module of
    # the trace, but not the connection behind the idempotents
    code = ("import json, sys\n"
            "from qhopf.cli import main\n"
            "assert main(['trace', '1 - a*a^*']) == 0\n"
            "print(json.dumps([m for m in ('qhopf.chern', 'qhopf.galois')\n"
            "                  if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["qhopf.chern"]


def test_verify_choices_are_the_suites(capsys):
    from qhopf import cli, verify
    assert list(cli.SUITE_CHOICES) == sorted(verify.SUITES) + ["all"]
    code, out, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2 and out == ""
    choices = ",".join(sorted(verify.SUITES) + ["all"])
    assert f"{{{choices}}}" in json.loads(err)["usage"]


def test_suites_take_the_command_parameters_and_record_their_sizes(capsys):
    import inspect
    from qhopf import verify
    want = [(name, inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty)
            for name in ("p_val", "q_val", "N", "seed")]
    for name, suite in verify.SUITES.items():
        got = [(p.name, p.kind, p.default)
               for p in inspect.signature(suite).parameters.values()]
        assert got == want, name
    # each report records the command's parameters it uses and the
    # suite's own sizes, which no parameter changes
    code, out, _ = run_cli(capsys, "verify", "all", "--p", "0.9", "--q",
                           "0.2", "--N", "50", "--seed", "3")
    assert code == 0
    params = {r["suite"]: r["params"] for r in json.loads(out)["reports"]}
    assert params == {
        "algebra": {"seed": 3, "triples": 500, "pairs": 500},
        "gluing": {"seed": 3, "degree": 6, "samples": 100},
        "galois": {"k_max": 8},
        "chern": {"n_max": 5, "p": 0.9, "q": 0.2, "N": 50, "seed": 3},
        "numeric": {"p": 0.9, "q": 0.2, "N": 50, "seed": 3},
        "classical": {"samples": 1000, "seed": 3},
    }


@pytest.mark.parametrize("suite", ["numeric", "all"])
@pytest.mark.parametrize("value", ["1", "0", "-3", "100001", "1e3", "x"])
def test_verify_truncation_budget_rejects_at_parse_time(capsys, monkeypatch,
                                                         suite, value):
    from qhopf import numrep

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before --N was validated")

    monkeypatch.setattr(numrep, "build_rep", no_suite)
    code, out, err = run_cli(capsys, "verify", suite, "--N", value)
    assert code == 2
    assert out == ""
    assert "--N" in err


def test_verify_truncation_budget_bounds_and_help(capsys):
    from qhopf.cli import N_MAX, N_MIN, _build_parser
    assert (N_MIN, N_MAX) == (2, 100_000)
    ap = _build_parser()
    for n in (N_MIN, 300, N_MAX):
        assert ap.parse_args(["verify", "numeric", "--N", str(n)]).N == n
    assert main(["verify", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "2 <= N <= 100000" in help_text


def test_verify_chern_near_the_classical_limit(capsys):
    # at p = q = 0.99 and N = 300 the discarded trace mass per unit
    # coefficient is about 4.9 per flag side; the check must compare each
    # element against its own tail bound, not one fixed constant
    code, out, _ = run_cli(capsys, "verify", "chern", "--p", "0.99",
                           "--q", "0.99")
    report = json.loads(out)
    check = next(c for c in report["reports"][0]["checks"]
                 if c["check_name"] ==
                 "exact trace matches the truncated operator trace")
    fixed_tail = 2 * 0.99 ** 300 / (1 - 0.99)
    assert check["pass"] is True
    assert check["worst_error"] > fixed_tail
    assert check["worst_error"] <= check["max_bound"]
    assert code == 0


@pytest.mark.parametrize("text", [
    "(" * 2000 + "a" + ")" * 2000,
    "-" * 3000 + "a",
    "a" + "^*" * 3000,
], ids=["parentheses", "unary minus", "postfix"])
def test_deep_expressions_exit_two(capsys, text):
    # exit 1 is reserved for a failed identity; a nesting beyond the
    # expression budget is a usage error
    code, out, err = run_cli(capsys, "normalize", "--", text)
    assert code == 2
    assert out == ""
    assert "nests deeper than" in json.loads(err)["error"]


def test_long_flat_sum_normalizes(capsys):
    code, out, _ = run_cli(capsys, "normalize", "+".join(["a"] * 3000))
    assert code == 0
    assert json.loads(out)["result"]["text"] == "3000*a"


def test_parser_is_built_once_per_process(capsys):
    from qhopf import cli
    cli._build_parser.cache_clear()
    assert main(["pairing", "--mu"]) == 2
    assert main(["verify", "--help"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "pairing", "--mu", "-1")
    assert code == 0
    assert json.loads(out)["value"] == "-1"
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("argv", [
    ["pairing", "--mu", "31"], ["pairing", "--mu", "-31"],
    ["pairing", "--mu", "0"], ["pairing", "--mu", "1.5"],
    ["pairing", "--mu", "x"],
    ["idempotent", "--mu", "15"], ["idempotent", "--mu", "-15"],
    ["idempotent", "--mu", "0"], ["idempotent", "--mu", "2.5"],
    ["connection", "--k", "65"], ["connection", "--k", "-65"],
    ["connection", "--k", "1e3"], ["connection", "--k", "x"],
], ids=" ".join)
def test_winding_and_power_budgets_reject_at_parse_time(capsys, monkeypatch,
                                                        argv):
    from qhopf import chern, galois

    def never(*args, **kwargs):
        raise AssertionError("a builder ran before its input was validated")

    for owner, name in ((chern, "pairing"), (chern, "idempotent"),
                        (galois, "strong_connection")):
        monkeypatch.setattr(owner, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert argv[1] in err


def test_winding_and_power_budgets_admit_their_limits(capsys):
    from qhopf.cli import (IDEMPOTENT_MU_MAX, K_MAX, PAIRING_MU_MAX,
                           _build_parser)
    # the pinned winding ladder fits both winding budgets
    assert min(IDEMPOTENT_MU_MAX, PAIRING_MU_MAX) >= 14
    ap = _build_parser()
    for cmd, limit in (("pairing", PAIRING_MU_MAX),
                       ("idempotent", IDEMPOTENT_MU_MAX)):
        for mu in (-limit, -1, 1, limit):
            assert ap.parse_args([cmd, "--mu", str(mu)]).mu == mu
    for k in (-K_MAX, 0, K_MAX):
        assert ap.parse_args(["connection", "--k", str(k)]).k == k
    assert main(["pairing", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"1 <= |mu| <= {PAIRING_MU_MAX}" in help_text


def test_internal_error_exits_three(capsys, monkeypatch):
    from qhopf import chern

    def broken(mu):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(chern, "pairing", broken)
    code, out, err = run_cli(capsys, "pairing", "--mu", "-1")
    assert code == 3
    assert out == ""
    report = json.loads(err)
    assert "simulated fault" in report["error"]
    assert "RuntimeError" in report["traceback"]


@pytest.mark.parametrize("argv", [
    [], ["unknown-command"], ["pairing"], ["pairing", "--mu", "0"],
    ["verify", "numeric", "--N", "1"], ["connection", "--k", "x"],
    ["verify", "all", "--p", "abc"], ["verify", "all", "--q", "1/0"],
    ["verify", "all", "--p", "1e400"], ["verify", "all", "--q", "1e400"],
    ["verify", "all", "--p", "0"], ["verify", "all", "--q", "1e-400"],
    ["verify", "all", "--seed", "-1"],
    ["verify", "all", "--p", "1e-1000000"],
    ["verify", "all", "--q", "1e1000000"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_usage_errors_print_one_json_error_line(capsys, argv):
    # the parser's own usage errors carry the same JSON error line on
    # stderr as the errors found after parsing
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    report = json.loads(err)
    assert report["schema"] == 1 and report["error"]
    assert report["usage"].startswith("usage: qhopf")


@pytest.mark.parametrize("option, text", [("--p", "1e-1000000"),
                                          ("--q", "1e1000000")])
def test_a_huge_exponent_is_rejected_before_its_fraction(
        capsys, monkeypatch, option, text):
    # Fraction computes 10**e for the exponent e, which costs time that
    # grows with e; the float range check comes first
    from qhopf import cli
    built = []

    def spy(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", spy)
    code, out, err = run_cli(capsys, "verify", "all", option, text)
    assert code == 2 and out == ""
    assert "float lies in (0, 1)" in json.loads(err)["error"]
    assert (text,) not in built


@pytest.mark.parametrize("argv, env", [
    (["verify", "all", "--p", "0"], None),
    (["verify", "all", "--p", "1"], None),
    (["verify", "all", "--q", "1e-400"], None),
    (["verify", "all", "--seed", "-1"], None),
    (["verify", "all"], "abc"),
    (["verify", "galois"], "-1"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else
    f"QHOPF_SEED={x}" if x else "env unset")
def test_verify_checks_its_numbers_before_any_suite_runs(capsys, monkeypatch,
                                                         argv, env):
    # a suite that ran would end in an internal error, exit 3
    from qhopf import verify

    def never(**kwargs):
        raise AssertionError("a suite ran before its parameters were checked")

    monkeypatch.setattr(verify, "SUITES", {name: never
                                           for name in verify.SUITES})
    if env is None:
        monkeypatch.delenv("QHOPF_SEED", raising=False)
    else:
        monkeypatch.setenv("QHOPF_SEED", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert ("QHOPF_SEED" if env else argv[2]) in json.loads(err)["error"]


def test_closed_pipe_ends_quietly_with_the_command_code():
    # the report is far larger than a pipe buffer, so the writer meets
    # the closed pipe; exit 1 stays reserved for a failed identity
    proc = subprocess.Popen(
        [sys.executable, "-m", "qhopf.cli", "idempotent", "--mu", "-10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
