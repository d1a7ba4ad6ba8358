"""The shared memo helper: single flight, LRU order, put/pop."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.memo import Memo


def test_concurrent_misses_build_each_key_once():
    memo: Memo[str, object] = Memo()
    builds: list[str] = []
    builds_lock = threading.Lock()
    threads = 8
    barrier = threading.Barrier(threads)
    results: list[tuple[str, object]] = []

    def build(key):
        def run():
            time.sleep(0.05)  # hold the build open while the others miss
            with builds_lock:
                builds.append(key)
            return object()

        return run

    def fetch(index):
        key = "ab"[index % 2]
        barrier.wait(timeout=30)
        results.append((key, memo.get(key, build(key))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=fetch, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(worker.is_alive() for worker in workers)
    assert sorted(builds) == ["a", "b"]
    assert len(results) == threads
    for key in "ab":
        values = {id(value) for k, value in results if k == key}
        assert len(values) == 1


def test_failed_build_leaves_the_key_absent():
    memo: Memo[str, int] = Memo()

    def boom():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        memo.get("k", boom)
    assert memo.get("k", lambda: 7) == 7


def test_lru_bound_evicts_least_recently_used():
    memo: Memo[str, int] = Memo(maxsize=2)
    memo.get("a", lambda: 1)
    memo.get("b", lambda: 2)
    assert memo.get("a", lambda: -1) == 1  # a is now the most recent
    memo.get("c", lambda: 3)  # evicts b
    assert memo.get("b", lambda: 20) == 20  # rebuilt; evicts a
    assert memo.get("c", lambda: -1) == 3
    assert memo.get("a", lambda: 10) == 10


def test_put_if_absent_pop_and_clear():
    memo: Memo[str, int] = Memo()
    assert memo.put_if_absent("a", 1) is True
    assert memo.put_if_absent("a", 2) is False
    assert memo.get("a", lambda: -1) == 1
    assert memo.pop("a") == 1
    assert memo.pop("a") is None
    memo.put_if_absent("b", 2)
    memo.clear()
    assert memo.get("b", lambda: 20) == 20
