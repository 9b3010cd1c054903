"""One fresh interpreter: import qhopf, build one workload, run it once.

Run by ``run.py``, never directly by a user.  Arguments:

    child.py SPAWN_TIME [WORKLOAD SEED SIZE TRACE SPANS_PATH]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is system-wide, so set-up time
counts interpreter start-up as every CLI call pays it.  With only
SPAWN_TIME the child measures set-up and exits.  The last line of
standard output is one JSON object.

Alongside every measurement the child times ``reference_loop``, a fixed
loop that does not touch the program, at least every REF_EVERY_S seconds
between items.  The parent divides by it to remove the machine's own
changes of speed.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
sys.path.insert(0, SRC)
import qhopf  # noqa: E402
import qhopf.cli  # noqa: E402,F401

READY = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def environment() -> dict:
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config's dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "qhopf_file": os.path.relpath(qhopf.__file__, os.path.dirname(SRC)),
    }


REF_EVERY_S = 0.05


def _dict_loop() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(2500):
        k = (i & 63, i >> 6)
        d[k] = d.get(k, 0) + i * i % 7
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Duration of a fixed loop of tuple keys and dict updates.

    Dict and small-object work, like the program's own, tracks the
    program's slowdowns under contention better than plain arithmetic.
    The loop runs twice and the second run is timed, with the garbage
    collector off: a cold cache, cold allocator free lists or a collection
    over the program's heap would make the reference depend on the
    program rather than on the machine.
    """
    gc.disable()
    try:
        _dict_loop()
        return _dict_loop()
    finally:
        gc.enable()


def run_pass(workload: str, seed: int, size: str, trace: bool,
             spans_path: str) -> dict:
    import workloads
    items, traffic = workloads.build(workload, seed, size)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    latencies = []
    lines = []
    failures = []
    clock = time.perf_counter
    ref = [reference_loop()]
    ref_before = []
    last_ref = clock()
    for i, item in enumerate(items):
        if clock() - last_ref > REF_EVERY_S:
            ref.append(reference_loop())
            last_ref = clock()
        ref_before.append(len(ref) - 1)
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = item.run()
            ok = bool(item.check(out))
        except Exception as exc:  # a raising item is a failed item
            out, ok = None, False
            failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        if not ok and out is not None:
            failures.append(f"{item.label}: wrong answer")
        # rendered once the clock has stopped; only the text is kept, so
        # peak RSS counts no output the benchmark alone holds
        lines.append(f"{item.kind}\t{item.label}\t"
                     f"{'!' if out is None else item.text(out)}")
        del out
    ref.append(reference_loop())
    # lines are sorted so a workload whose seed only reorders its items
    # has one digest
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    record = {
        "setup_s": READY - SPAWN,
        "wall_s": sum(latencies),
        "latencies": latencies,
        # each item's speed reference: the faster of the samples taken
        # just before and just after it
        "refs": [min(ref[k], ref[k + 1]) for k in ref_before],
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "traffic": traffic,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump({"fields": list(tracing.SPAN_FIELDS),
                       "items": [item.label for item in items],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    return record


if __name__ == "__main__":
    SPAWN = float(sys.argv[1])
    if len(sys.argv) == 2:
        result = {"setup_s": READY - SPAWN, "env": environment()}
    else:
        _, _, wl, sd, sz, tr, path = sys.argv
        result = run_pass(wl, int(sd), sz, tr == "1", path)
    print(json.dumps(result))
