"""qhopf benchmark: run one workload in fresh interpreters and report.

    python3 perfbench/run.py --workload deep-exact --seed 1 --seconds 40

Every pass is a new child interpreter (``child.py``) that imports qhopf,
builds the workload's seeded items, and runs them once on its main
thread, so every module-level memo of the program starts cold, as it
does for each CLI call.  Passes repeat while another one still fits in
``--seconds``.
Every time is scaled by a reference loop timed beside it, so that the
machine's own changes of speed cancel (see ``measure``).  Each item's
latency is its median scaled run over the passes, and ``wall_s`` is
their sum.  Set-up time comes from children, SETUPS_PER_PASS before
each pass, that only import qhopf and qhopf.cli; each is scaled by a bare
interpreter started just after it, and ``setup_s`` is the median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics recorded by
``tracing.py`` in the fastest traced pass, plus the tracing overhead
(``wall_s`` of the traced passes over that of the untraced ones, minus
1).  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  A readable report precedes it,
and a fuller record (environment, traffic, digests, sample counts) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("deep-exact", "wide-exact", "numeric-oracle")
CHILD_TIMEOUT_S = 150
# set-up children before each pass; each, with its bare interpreter,
# costs about 0.25 s
SETUPS_PER_PASS = 3
# the reference loop's duration on a 2.1 GHz Xeon core at low contention;
# any constant serves, as long as the runs being compared share it
REF_NOMINAL_S = 3.8e-4
# set-up is process start, loading and imports, which the dict loop does
# not track; it is scaled instead by the start of a bare interpreter that
# never imports the program (0.035 s on that core at low contention)
START_NOMINAL_S = 0.035
START_CODE = ("import sys, time; "
              "print(time.perf_counter() - float(sys.argv[1]))")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
                    "item_p90_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("total_s", "self_s")):
        return "s"
    if name.endswith(("pair_reuse", "overhead_ratio")):
        return "ratio"
    if name == "numrep.dense_bytes":
        return "bytes_computed"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the steadiest setting on a shared machine, and the
    # program runs on one thread anyway
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(args: list, env: dict, script: list = None) -> dict:
    """Start one child interpreter and return its JSON result."""
    script = script or [os.path.join(HERE, "child.py")]
    cmd = [sys.executable, *script, repr(time.perf_counter()), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_hash() -> str:
    """HEAD of the checkout, if it is a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def golden_digest(golden: dict, workload: str, seed: int):
    table = golden.get(workload, {})
    return table.get(str(seed), table.get("*"))


def percentile(sorted_values: list, frac: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(frac * len(sorted_values)) - 1)
    return sorted_values[k]


def item_latencies(passes: list) -> list:
    """Each item's median scaled latency over the given passes."""
    return [statistics.median(lat * REF_NOMINAL_S / ref for lat, ref in runs)
            for runs in zip(*(zip(r["latencies"], r["refs"])
                              for r in passes))]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run set-up children and passes; return the full record."""
    env = child_env()
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    pass_args = [workload, str(seed), size]
    warm = spawn([], env)          # fills the bytecode caches; not counted
    setups, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        # set-up samples are spread over the run, not taken in one burst
        for _ in range(SETUPS_PER_PASS):
            setups.append((spawn([], env)["setup_s"],
                           spawn([], env, ["-c", START_CODE])))
        use_trace = trace and len(traced) < len(plain)
        res = spawn(pass_args + ["1" if use_trace else "0", spans_path], env)
        (traced if use_trace else plain).append(res)
        # stop unless another cycle like this one ends within the budget
        now = time.perf_counter()
        if 2 * now - cycle_start - start > seconds and (not trace or traced):
            break

    # Other tenants of a shared machine slow every process down, in bursts
    # and in phases that last minutes.  Each time is therefore divided by
    # the reference loop timed beside it (scaled to REF_NOMINAL_S), and
    # each item's latency is its median scaled run over the passes.
    typical = item_latencies(plain)
    ranked = sorted(typical)
    raw = sorted(statistics.median(lat)
                 for lat in zip(*(r["latencies"] for r in plain)))
    passes = plain + traced
    attempted = sum(len(r["latencies"]) for r in passes)
    failed = sum(r["failed"] for r in passes)
    digests = {r["digest"] for r in passes}
    want = golden_digest(load_golden(), workload, seed) \
        if size == "full" else None
    digest_ok = len(digests) == 1 and (want is None or want in digests)
    p90 = percentile(ranked, 0.9)

    e2e = {
        "setup_s": statistics.median(s * START_NOMINAL_S / bare
                                     for s, bare in setups),
        "wall_s": sum(typical),
        "item_p50_ms": 1e3 * percentile(ranked, 0.5),
        "item_p90_ms": 1e3 * p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    unscaled = {
        "setup_s": statistics.median(s for s, _bare in setups),
        "wall_s": sum(raw),
        "item_p50_ms": 1e3 * percentile(raw, 0.5),
        "item_p90_ms": 1e3 * percentile(raw, 0.9),
    }
    samples = {"setup_s": len(setups), "wall_s": len(plain),
               "item_p50_ms": len(ranked), "item_p90_ms": len(ranked),
               "peak_rss_mb": len(plain)}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "items_per_pass": len(ranked),
        "beyond_p90": sum(1 for x in ranked if x > p90),
        "end_to_end": e2e, "unscaled": unscaled, "samples": samples,
        "fail_ratio": failed / attempted,
        "attempted": attempted, "failed": failed,
        "failures": [f for r in passes for f in r["failures"]][:10],
        "digest": sorted(digests), "golden_digest": want,
        "digest_ok": digest_ok,
        "correct": failed == 0 and digest_ok,
        "traffic": plain[0]["traffic"],
        "env": {**warm["env"], "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "commit": commit_hash()},
    }
    if trace:
        best = min(traced, key=lambda r: r["wall_s"])
        layers = dict(best["layers"])
        layers["trace.overhead_ratio"] = (
            sum(item_latencies(traced)) / e2e["wall_s"] - 1.0)
        record["layers"] = layers
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    return record


def report(record: dict) -> None:
    r = record
    print(f"workload {r['workload']}  seed {r['seed']}  "
          f"passes {r['passes']['untraced']} untraced + "
          f"{r['passes']['traced']} traced  items/pass {r['items_per_pass']}")
    for name, value in r["end_to_end"].items():
        raw = r["unscaled"].get(name)
        print(f"  {name:<13} {value:12.4f} {END_TO_END_UNITS[name]:<3}"
              f"  (n={r['samples'][name]})"
              + ("" if raw is None else f"  unscaled {raw:.4f}"))
    print(f"  {'fail_ratio':<13} {r['fail_ratio']:12.4f}"
          f"      ({r['failed']}/{r['attempted']} items)")
    print(f"  items beyond p90: {r['beyond_p90']}")
    print(f"  digest {'ok' if r['digest_ok'] else 'MISMATCH'}: "
          f"{r['digest']} (golden {r['golden_digest']})")
    for f in r["failures"]:
        print(f"  FAILED {f}")
    if "layers" in r:
        for name, value in r["layers"].items():
            print(f"  {name:<44} {value:14.6g} {layer_unit(name)}")
    print(f"  traffic {json.dumps(r['traffic'])}")
    print(f"  env {json.dumps(r['env'])}")


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in record["layers"].items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (no golden digest check)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qhopf", "__init__.py")):
        print("error: src/qhopf not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), "tiny" if args.tiny else "full")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
