"""Command line interface: expression commands and verification suites.

Every command emits a JSON report (``--text`` switches to aligned
lines) carrying a top-level ``"schema": 1`` field.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage errors (including an
input beyond its budget), 3 on an internal error.  Exit codes 2 and 3
come with one JSON line carrying ``"error"`` on stderr; for a usage
error caught by the parser it also carries the ``"usage"`` line, for
exit 3 the ``"traceback"``.  A reader that closes the pipe early ends
the command quietly, with the command's own exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

SCHEMA = 1


def _parameter(text: str) -> Fraction:
    # a rational number whose float, which the numeric checks read, lies
    # in (0, 1): the float of 1e-400 is 0, that of 1e400 overflows.  A
    # decimal's float is checked before its Fraction, which computes 10**e
    # for the exponent e; both round correctly, so they agree on the range
    try:
        if "/" not in text and not 0.0 < float(text) < 1.0:
            raise ValueError(text)
        x = Fraction(text)
        ok = 0.0 < float(x) < 1.0
    except (ValueError, ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"not a rational number whose float lies in (0, 1): {text!r}")
    return x


# budget of --N: numeric traces are banded, O(N) memory and time per
# monomial, so the ceiling bounds a run of the chern and numeric suites
N_MIN, N_MAX = 2, 100_000

# budgets of --k and --mu, and the whole command's time at each limit and
# at N_MAX: medians of ten uncached runs per sign, all measured together
# beside a bare interpreter at 0.068 s and pairing --mu -1 at 0.117 s
# (shared 2-core Xeon); idempotent prints (n+1)^2 entries, so it stops sooner
K_MAX = 64
PAIRING_MU_MAX = 30
IDEMPOTENT_MU_MAX = 14
AT_LIMIT = {"connection": "0.19-0.20 s and 0.85 MB of JSON",
            "idempotent": "0.41-0.43 s and 1.2 MB of JSON",
            "pairing": "0.21-0.22 s", "verify chern": "0.52 s",
            "verify numeric": "0.54 s"}

# the verify command's choices: qhopf.verify's suites, sorted, then "all";
# named here so that building the parser does not import verify
SUITE_CHOICES = ("algebra", "chern", "classical", "galois", "gluing",
                 "numeric", "all")


def _bounded(lo: int, hi: float, what: str, nonzero: bool = False):
    """An argparse type: an integer in [lo, hi], and nonzero if asked."""
    def check(text: str) -> int:
        try:
            n = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") \
                from exc
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(
                f"{what} must lie in [{lo}, {hi}], got {n}")
        if nonzero and n == 0:
            raise argparse.ArgumentTypeError(f"{what} must be nonzero")
        return n
    return check


# --seed and QHOPF_SEED: any integer >= 0
_seed = _bounded(0, float("inf"), "seed")


def _default_seed() -> int:
    env = os.environ.get("QHOPF_SEED")
    try:
        return 7 if env is None else _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"QHOPF_SEED: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors print the JSON error line, exit 2."""

    def error(self, message):
        print(json.dumps({"schema": SCHEMA, "error": message,
                          "usage": " ".join(self.format_usage().split())}),
              file=sys.stderr)
        self.exit(2)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: eleven subparsers cost about 1.5 ms, and
    # parsing with them reads but never changes them; subparsers take
    # the class of their parent, so every usage error goes to _Parser.
    # The output flags have no default, which main supplies: a subparser's
    # default would overwrite a flag given before the command
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", dest="as_json", action="store_true",
                        default=argparse.SUPPRESS, help="emit JSON (default)")
    output.add_argument("--text", dest="as_json", action="store_false",
                        default=argparse.SUPPRESS,
                        help="emit aligned text instead of JSON")
    ap = _Parser(
        prog="qhopf",
        parents=[output],
        description="Exact symbolic engine for the glued quantum 3-sphere "
                    "and its circle fibration, with a numeric oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, helptext in [
            ("normalize", "normal form of a *-algebra expression"),
            ("star", "adjoint of an expression"),
            ("winding", "split an expression by circle weight"),
            ("coaction", "right coaction applied to an expression"),
            ("gluing-check", "verify the two-chart boundary matching"),
            ("trace", "exact trace of a coinvariant expression")]:
        p = sub.add_parser(name, help=helptext, parents=[output])
        p.add_argument("expression")

    p = sub.add_parser("mul", help="product of two expressions",
                       parents=[output])
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("connection", help="strong connection value on u^k",
                       parents=[output])
    p.add_argument("--k", required=True,
                   type=_bounded(-K_MAX, K_MAX, "circle power"),
                   help=f"circle power, |k| <= {K_MAX} "
                        f"({AT_LIMIT['connection']} at the limit)")

    p = sub.add_parser("idempotent", help="line-module idempotent matrix",
                       parents=[output])
    p.add_argument("--mu", required=True,
                   type=_bounded(-IDEMPOTENT_MU_MAX, IDEMPOTENT_MU_MAX,
                                 "winding label", nonzero=True),
                   help=f"winding label, 1 <= |mu| <= {IDEMPOTENT_MU_MAX} "
                        f"({AT_LIMIT['idempotent']} at the limit)")

    p = sub.add_parser("pairing", help="trace paired with an idempotent",
                       parents=[output])
    p.add_argument("--mu", required=True,
                   type=_bounded(-PAIRING_MU_MAX, PAIRING_MU_MAX,
                                 "winding label", nonzero=True),
                   help=f"winding label, 1 <= |mu| <= {PAIRING_MU_MAX} "
                        f"({AT_LIMIT['pairing']} at the limit)")

    p = sub.add_parser("verify", help="run a verification suite",
                       parents=[output])
    p.add_argument("suite", choices=SUITE_CHOICES)
    p.add_argument("--p", type=_parameter, default=Fraction(1, 2),
                   help="value of p in (0, 1) (rational or decimal; "
                        "default 1/2)")
    p.add_argument("--q", type=_parameter, default=Fraction(1, 3),
                   help="value of q in (0, 1) (default 1/3)")
    p.add_argument("--N", default=300,
                   type=_bounded(N_MIN, N_MAX, "truncation dimension"),
                   help=f"truncation dimension for numeric traces, "
                        f"{N_MIN} <= N <= {N_MAX} (default 300; at the "
                        f"limit, verify chern {AT_LIMIT['verify chern']}, "
                        f"verify numeric {AT_LIMIT['verify numeric']})")
    p.add_argument("--seed", type=_seed, default=None,
                   help="random seed, >= 0 (default: QHOPF_SEED or 7)")
    return ap


def _element_payload(x) -> dict:
    return {"text": x.text(), "terms": x.json_terms()}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=False))
        return
    for key, value in report.items():
        if key in ("schema",):
            continue
        if key == "reports":
            for suite in value:
                print(f"suite {suite['suite']}: "
                      f"{'PASS' if suite['pass'] else 'FAIL'} "
                      f"({suite['elapsed_s']}s)")
                for c in suite["checks"]:
                    status = "PASS" if c["pass"] else "FAIL"
                    extra = {k: v for k, v in c.items()
                             if k not in ("check_name", "pass")}
                    tail = f"  {extra}" if extra else ""
                    print(f"  {status}  {c['check_name']}{tail}")
        elif isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")


def run_command(args: argparse.Namespace) -> tuple[dict, int]:
    """Execute one parsed command, importing only the engine modules it
    calls; returns (report, exit_code)."""
    cmd = args.command
    report: dict = {"schema": SCHEMA, "command": cmd}

    if cmd == "normalize":
        from . import exprs
        x = exprs.evaluate_algebra(args.expression)
        report["result"] = _element_payload(x)
        return report, 0

    if cmd == "mul":
        from . import exprs, s3core
        x = exprs.evaluate_algebra(args.left)
        y = exprs.evaluate_algebra(args.right)
        report["result"] = _element_payload(s3core.mul(x, y))
        return report, 0

    if cmd == "star":
        from . import exprs, scalars
        val = exprs.evaluate(args.expression)
        if isinstance(val, scalars.ParamScalar):
            report["result"] = {"text": str(val)}
        else:
            report["result"] = _element_payload(val.star())
        return report, 0

    if cmd == "winding":
        from . import exprs
        x = exprs.evaluate_algebra(args.expression)
        report["result"] = {
            str(w): _element_payload(part)
            for w, part in x.winding_components().items()}
        return report, 0

    if cmd == "coaction":
        from . import exprs, hopf
        x = exprs.evaluate_algebra(args.expression)
        report["result"] = _element_payload(hopf.coaction(x))
        return report, 0

    if cmd == "gluing-check":
        from . import exprs, gluing
        x = exprs.evaluate_algebra(args.expression)
        ok = gluing.gluing_check(x)
        report["pass"] = ok
        return report, 0 if ok else 1

    if cmd == "trace":
        from . import chern, exprs
        x = exprs.evaluate_algebra(args.expression)
        val = chern.trace_functional(x)
        report["result"] = {"value": str(val), "integer": val.is_integer()}
        return report, 0

    if cmd == "connection":
        from . import galois
        ell = galois.strong_connection(args.k)
        report["k"] = args.k
        report["result"] = ell.json_terms()
        return report, 0

    if cmd == "idempotent":
        from . import chern
        e = chern.idempotent(args.mu)
        report["mu"] = args.mu
        report["size"] = e.shape[0]
        rows = e.entries
        report["entries"] = [[el.json_terms() for el in row] for row in rows]
        report["text"] = [[el.text() for el in row] for row in rows]
        return report, 0

    if cmd == "pairing":
        from . import chern
        val = chern.pairing(args.mu)
        report["mu"] = args.mu
        report["value"] = str(val)
        report["integer"] = val.is_integer()
        return report, 0

    if cmd == "verify":
        # every parameter is checked before the first suite runs
        seed = args.seed if args.seed is not None else _default_seed()
        from . import verify   # only this command loads the suites
        names = list(verify.SUITES) if args.suite == "all" else [args.suite]
        reports = [verify.SUITES[name](
            p_val=float(args.p), q_val=float(args.q), N=args.N, seed=seed)
            for name in names]
        ok = all(r["pass"] for r in reports)
        report["suite"] = args.suite
        report["params"] = {"p": str(args.p), "q": str(args.q), "N": args.N,
                            "seed": seed}
        report["reports"] = reports
        report["pass"] = ok
        if not ok:
            report["failures"] = [
                c["check_name"] for r in reports for c in r["checks"]
                if not c["pass"]]
        return report, 0 if ok else 1

    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        report, code = run_command(args)
    except (ValueError, ZeroDivisionError) as exc:   # ExprError included
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of the input: exit 1 stays
        # reserved for an identity that failed.  traceback is imported
        # here because no other start-up import loads it
        import traceback
        print(json.dumps({"schema": SCHEMA,
                          "error": f"internal error: {exc!r}",
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 3
    try:
        _emit(report, getattr(args, "as_json", True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: end quietly, and point stdout at devnull
        # so that the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
