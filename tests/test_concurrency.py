"""Concurrent callers on cold memo tables get the single-threaded results."""

import random
import sys
import threading

import pytest

from qhopf import numrep, s3core, scalars
from qhopf.galois import strong_connection
from qhopf.gluing import chi
from qhopf.numrep import numeric_trace
from qhopf.s3core import mul
from qhopf.scalars import qbinomial
from qhopf.verify import random_coinvariant, random_element

THREADS = 4


def _work(seed: int) -> list:
    rng = random.Random(seed)
    out = [qbinomial(n, n // 2, param) for param in ("q", "p")
           for n in range(40)]
    for _ in range(6):
        x = random_element(rng, max_shift=4, max_flag=3)
        y = random_element(rng, max_shift=4, max_flag=3)
        out += [mul(x, y), chi(x, rng.choice("pq"))]
    out += [strong_connection(k) for k in rng.sample(range(-6, 7), 6)]
    out += [numeric_trace(random_coinvariant(rng), 40, 0.5, 1 / 3)
            for _ in range(3)]
    return out


def _clear(monkeypatch):
    for module, name in ((scalars, "_QBIN_ROWS"),
                         (s3core, "_MONO_MUL_CACHE")):
        monkeypatch.setattr(module, name, {})
    numrep._trace_pair.cache_clear()


@pytest.mark.parametrize("trial", range(3))
def test_threads_on_cold_memo_tables_agree_with_one_thread(monkeypatch,
                                                           trial):
    seeds = [100 * trial + i for i in range(THREADS)]
    _clear(monkeypatch)
    want = [_work(seed) for seed in seeds]
    _clear(monkeypatch)
    got: list = [None] * THREADS
    start = threading.Barrier(THREADS)

    def run(i):
        start.wait(timeout=60)
        try:
            got[i] = _work(seeds[i])
        except Exception as exc:   # reported by the assertion below
            got[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often, inside the folds
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(THREADS):
        assert got[i] == want[i], f"thread {i}: {got[i]!r}"[:300]
