"""Regenerate the benchmark's committed records.

    python3 perfbench/record.py results   # table + perfbench/results.json
    python3 perfbench/record.py spread    # run-to-run spread over seeds 0-9
    python3 perfbench/record.py golden    # perfbench/golden.json digests

``results`` runs every workload with and without tracing on the default
seed and on a held-out seed, prints every end-to-end metric with its
unit and sample count, and writes the records with the environment.
``spread`` runs each workload once per seed 0-9, as a regression check
would, and reports each end-to-end metric's quartile spread (distance
between first and third quartile over the median) against its bound in
BENCHMARK.json, beside the spread of the unscaled values.  ``golden``
runs one pass per seed and stores the output digests that later runs
must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
GOLDEN_SEEDS = range(0, 32)
SPREAD_SEEDS = range(0, 10)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """Invoke run.py as the regression check does; return its record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed:\n{proc.stderr[-4000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.OUT, f"{workload}-seed{seed}-trace"
                           f"{trace}.json")) as fh:
        record = json.load(fh)
    record["result_line"] = line
    return record


def cmd_results() -> None:
    seconds = benchmark_spec()["run_seconds"]
    out = {"run_seconds": seconds, "default_seed": DEFAULT_SEED,
           "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for wl in run.WORKLOADS:
        entry = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            plain = run_once(wl, seed, 0, seconds)
            traced = run_once(wl, seed, 1, seconds)
            entry[str(seed)] = {
                "end_to_end": plain["end_to_end"],
                "unscaled": plain["unscaled"],
                "samples": plain["samples"],
                "items_per_pass": plain["items_per_pass"],
                "beyond_p90": plain["beyond_p90"],
                "fail_ratio": plain["fail_ratio"],
                "attempted": plain["attempted"],
                "digest_ok": plain["digest_ok"] and traced["digest_ok"],
                "layers": traced["layers"],
                "traffic": plain["traffic"],
            }
            out["env"] = plain["env"]
            print(f"{wl:<15} seed {seed:<5} items/pass "
                  f"{plain['items_per_pass']:<5} "
                  f"fail_ratio {plain['fail_ratio']:.4f} "
                  f"({plain['failed']}/{plain['attempted']})  digest "
                  f"{'ok' if entry[str(seed)]['digest_ok'] else 'MISMATCH'}")
            for name, value in plain["end_to_end"].items():
                print(f"    {name:<12} {value:11.4f} "
                      f"{run.END_TO_END_UNITS[name]:<3} "
                      f"(n={plain['samples'][name]})")
            print(f"    trace.overhead_ratio "
                  f"{traced['layers']['trace.overhead_ratio']:.3f}")
        out["workloads"][wl] = entry
    with open(os.path.join(HERE, "results.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def quartile_spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def cmd_spread() -> None:
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for wl in run.WORKLOADS:
        values: dict = {name: [] for name in bounds}
        unscaled: dict = {name: [] for name in bounds}
        for seed in SPREAD_SEEDS:
            record = run_once(wl, seed, 0, spec["run_seconds"])
            line = record["result_line"]
            if not line["correct"] or line["failed"]:
                print(f"{wl} seed {seed}: INCORRECT {line}")
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
                if name in record["unscaled"]:
                    unscaled[name].append(record["unscaled"][name])
        for name, vals in values.items():
            spread = quartile_spread(vals)
            raw = (f"  unscaled {quartile_spread(unscaled[name]):.4f}"
                   if unscaled[name] else "")
            print(f"{wl:<15} {name:<12} median {statistics.median(vals):11.4f}"
                  f"  spread {spread:.4f}{raw}  bound {bounds[name]}"
                  f"  {'ok' if spread < bounds[name] / 3 else 'WIDE'}"
                  f"  values {[round(v, 4) for v in vals]}")
        sys.stdout.flush()


def cmd_golden() -> None:
    env = run.child_env()
    path = os.path.join(run.OUT, "golden-spans.json")
    golden = {}
    for wl in run.WORKLOADS:
        digests = {}
        for seed in GOLDEN_SEEDS:
            res = run.spawn([wl, str(seed), "full", "0", path], env)
            if res["failed"]:
                raise SystemExit(f"{wl} seed {seed} failed: "
                                 f"{res['failures']}")
            digests[str(seed)] = res["digest"]
        # a workload whose seed only reorders its items has one digest
        if len(set(digests.values())) == 1:
            digests = {"*": next(iter(digests.values()))}
        golden[wl] = digests
        print(wl, len(set(digests.values())), "distinct digests")
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = {"results": cmd_results, "spread": cmd_spread,
                "golden": cmd_golden}
    ap.add_argument("command", choices=commands)
    commands[ap.parse_args().command]()


if __name__ == "__main__":
    main()
