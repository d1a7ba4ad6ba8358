"""Host speed: a fixed reference loop, timed next to the work it calibrates.

The benchmark's host is a small VM whose cores other tenants share.  For
seconds to minutes at a time every instruction runs up to ~1.5x slower,
CPU time included, so neither wall time nor CPU time of an operation is
comparable between two runs.  The ratio of an operation's time to the
time of a fixed loop run on the same thread just before it is: measured
over 1300 warm re-curations, the operation slowed from 92 ms to 145 ms
across such phases while the ratio stayed within 2% of 4.48.

So every timing the benchmark reports is scaled to the host's uncontended
speed: ``scaled = measured * REFERENCE_S / reference_s``, where
``reference_s`` is the loop's CPU time measured next to the operation and
:data:`REFERENCE_S` is its pinned uncontended time.  The loop is the
benchmark's own code and never calls the program, so a change to the
program cannot move it.  The unscaled times and every reference sample go
to the ``perfbench-detail`` line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy

#: CPU seconds of one :func:`reference` loop on an uncontended core of an
#: Intel Xeon 2-vCPU VM (the 10th percentile of 400 loops).  Only the
#: ratio to it matters; a host of another speed scales every figure by
#: the same constant.
REFERENCE_S = 0.0059

_KEYS = [f"addr-{i % 997}-{i % 13}" for i in range(6000)]
_VECTOR = numpy.arange(60_000, dtype=numpy.float64)


def reference() -> float:
    """Run the fixed loop once; its thread CPU time, seconds.

    A mix like the program's own: dict and string work in the
    interpreter, a JSON encoding, sha256 and small numpy vector passes.
    The collector is paused so that the loop's cost does not depend on
    how large the calling process's heap is.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop()
    finally:
        if collecting:
            gc.enable()


def _timed_loop() -> float:
    started = time.thread_time()
    table: dict[str, int] = {}
    for index, key in enumerate(_KEYS):
        table[key] = table.get(key, 0) + index
    rows = sorted(table.items())
    blob = json.dumps(rows, separators=(",", ":")).encode()
    digest = hashlib.sha256(blob * 8).hexdigest()
    vector = _VECTOR
    for _ in range(4):
        vector = numpy.sqrt(vector * 1.0001 + 1.0)
    if not digest or not vector.size:
        raise AssertionError("unreachable")
    return time.thread_time() - started


reference()  # first calls pay one-off set-up (allocator, ufunc dispatch)


def scale(measured_s: float, reference_s: float) -> float:
    """``measured_s`` as it would read at the uncontended speed."""
    return measured_s * REFERENCE_S / reference_s


def pin_to_one_core(index: int) -> int:
    """Pin the calling thread, and threads it starts later, to one core
    (``index`` modulo the cores available); returns the core.

    A child inherits its parent's pin, so every core is allowed again
    before one is chosen.
    """
    try:
        os.sched_setaffinity(0, range(os.cpu_count() or 1))
    except OSError:
        pass  # a cpuset narrower than the CPU count: keep what is allowed
    cores = sorted(os.sched_getaffinity(0))
    core = cores[index % len(cores)]
    os.sched_setaffinity(0, {core})
    return core


def window_reference(samples, windows, margin: float = 0.0) -> float:
    """Median reference time of the ``(time, seconds)`` samples taken in
    one of ``windows``, each widened by ``margin`` seconds on both sides;
    of all samples when none fall inside, and :data:`REFERENCE_S` (no
    scaling) when there are none."""
    inside = [
        s for t, s in samples
        if any(lo - margin <= t <= hi + margin for lo, hi in windows)
    ]
    return statistics.median(inside or [s for _, s in samples] or [REFERENCE_S])


class Sampler:
    """A daemon thread that runs the reference loop every ``interval``
    seconds and records ``(time.monotonic(), seconds)``.

    In a process pinned to one core it measures the speed of the core the
    work runs on, at a cost of one loop per interval; with
    ``rotate=True`` it moves to the next core before each loop.
    """

    def __init__(self, interval: float = 0.25, rotate: bool = False) -> None:
        self.interval = interval
        self.rotate = rotate
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(self.interval):
            if self.rotate:
                pin_to_one_core(turn)
                turn += 1
            self.samples.append((time.monotonic(), reference()))


class SamplerProcess:
    """A rotating :class:`Sampler` in a child process of its own, for work
    that runs in other processes (the server and the worker), so that its
    loops never hold their interpreter lock."""

    def __enter__(self) -> "SamplerProcess":
        import harness

        self.samples: list[tuple[float, float]] = []
        self._proc = harness.start_child(harness.python_child("speed.py"))
        harness.await_banner(self._proc, 30)
        return self

    def __exit__(self, *exc) -> None:
        import harness

        proc = self._proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            out, _ = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            harness.stop_child(proc)
            return
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            self.samples = [tuple(sample) for sample in json.loads(lines[-1])]


def main() -> int:
    """``python3 perfbench/speed.py``: sample until SIGINT, then print the
    samples as one JSON line."""
    with Sampler(rotate=True) as sampler:
        print("speed sampler listening on -:0", flush=True)
        try:
            signal.pause()
        except KeyboardInterrupt:
            pass
    print(json.dumps(sampler.samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
