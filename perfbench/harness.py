"""Process plumbing shared by the workloads: paths, child processes, memory.

Everything the benchmark writes goes under ``<checkout>/.perfbench_tmp``
and is removed when the run ends; every child process is started from
here and stopped by PID before the run returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources, no knobs.

    ``REPRO_*`` variables select backends, caches and fault profiles, so
    none leak in from the caller's shell.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def isolate_this_process() -> None:
    """Apply :func:`child_env` to the running benchmark process itself."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_tmp_dir() -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))


def remove_tmp_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass  # another run still owns a directory there


def python_child(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def run_json_child(command: list[str], timeout: float) -> dict:
    """Run a child to completion; its last stdout line is a JSON object."""
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{Path(command[1]).name} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def start_child(command: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )


def await_banner(proc: subprocess.Popen, timeout: float) -> tuple[str, int]:
    """The ``host:port`` from a ``... listening on host:port`` stdout line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"child exited {proc.returncode} before listening")
        ready, _, _ = select.select([proc.stdout], [], [], 0.2)
        if not ready:
            continue
        line = proc.stdout.readline()
        if " listening on " in line:
            host, _, port = line.rsplit(" listening on ", 1)[1].split()[0].rpartition(":")
            return host, int(port)
    raise RuntimeError("child did not announce a listening address in time")


def stop_child(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGINT (a clean exit that writes spans), then SIGKILL; always reap."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over ``src/`` (path + bytes), identifying the code measured."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def fingerprint(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
