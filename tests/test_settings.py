"""Run settings: one module parses the twelve ``REPRO_*`` variables.

Pins the uniform parsing rule (an empty value is unset, a malformed value
is a :class:`ConfigurationError` naming its variable), the flag-over-env
rule of the edges, and the boundary itself: no other module under
``src/`` touches the environment.
"""

from __future__ import annotations

import ast
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import resolve_fault_profile
from repro.settings import RunSettings, ambient_columnar

SRC = Path(__file__).resolve().parent.parent / "src"


def _field(name):
    return lambda: getattr(RunSettings.from_env(), name)


# (variable, a malformed value or None, reader, value when empty)
VARIABLES = [
    ("REPRO_EXEC_BACKEND", "cluster", _field("backend"), "serial"),
    ("REPRO_REMOTE_WORKERS", "no-port", _field("remote_workers"), ()),
    ("REPRO_ELASTIC", "2", _field("elastic"), False),
    ("REPRO_COORDINATOR", "h:banana", _field("coordinator"),
     ("127.0.0.1", 7070)),
    # Every string names a path, so the cache root has no malformed value.
    ("REPRO_CACHE_DIR", None, _field("cache_dir"), None),
    ("REPRO_CACHE_MAX_BYTES", "1GB", _field("cache_max_bytes"), None),
    ("REPRO_SCHEDULE", "fastest", _field("schedule"), "lpt"),
    ("REPRO_CHUNK_TASKS", "8x", _field("chunk_tasks"), None),
    ("REPRO_BENCH_SCALE", "big", _field("bench_scale"), 0.12),
    ("REPRO_BENCH_MIN_SAMPLES", "x", _field("bench_min_samples"), 10),
    ("REPRO_FAULT_PROFILE", "drop=high",
     lambda: resolve_fault_profile(None), None),
    ("REPRO_COLUMNAR", "disabled", ambient_columnar, True),
]


@pytest.fixture(autouse=True)
def _unset_all(monkeypatch):
    """CI jobs export some of these process-wide; each test starts clean."""
    for name, *_ in VARIABLES:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize(
    "name, malformed, read, default", VARIABLES, ids=[v[0] for v in VARIABLES]
)
def test_empty_is_unset_and_malformed_names_the_variable(
    monkeypatch, name, malformed, read, default
):
    monkeypatch.setenv(name, "")
    assert read() == default
    if malformed is not None:
        monkeypatch.setenv(name, malformed)
        with pytest.raises(ConfigurationError, match=name):
            read()


def test_documented_spellings(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "remote")
    monkeypatch.setenv("REPRO_REMOTE_WORKERS", "a:1, b:2,")
    monkeypatch.setenv("REPRO_ELASTIC", " Yes ")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/cache")
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    monkeypatch.setenv("REPRO_SCHEDULE", "fifo")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")
    monkeypatch.setenv("REPRO_BENCH_MIN_SAMPLES", "30")
    settings = RunSettings.from_env()
    assert settings == RunSettings(
        backend="remote",
        remote_workers=(("a", 1), ("b", 2)),
        elastic=True,
        cache_dir=Path("/tmp/cache"),
        cache_max_bytes=4096,
        schedule="fifo",
        bench_scale=1.0,
        bench_min_samples=30,
    )


def test_flags_override_without_reading_the_variable(monkeypatch):
    """A given flag wins, and its variable is not even parsed."""
    monkeypatch.setenv("REPRO_SCHEDULE", "fastest")
    monkeypatch.setenv("REPRO_CHUNK_TASKS", "24")
    settings = RunSettings.from_env(schedule="fifo", chunk_tasks=None)
    assert settings.schedule == "fifo"
    assert settings.chunk_tasks == 24  # None means "flag not given"
    with pytest.raises(TypeError):
        RunSettings.from_env(schedule="fifo", no_such_knob=1)


def test_settings_are_frozen_and_hashable():
    settings = RunSettings()
    with pytest.raises(FrozenInstanceError):
        settings.backend = "thread"  # type: ignore[misc]
    assert hash(settings) == hash(RunSettings())


def _environment_reads(tree: ast.AST):
    """(line, enclosing function) of each ``os.environ``/``os.getenv``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and {"environ", "getenv"} & {alias.name for alias in node.names}
        ):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_settings_module_reads_the_environment():
    """Below the edges nothing reads ``REPRO_*``: ``os.environ`` and
    ``os.getenv`` appear only in ``repro/settings.py`` and in the
    ``PYTHONPATH`` copy ``start_local_worker`` hands its child."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, function in _environment_reads(tree):
            if relative == "repro/settings.py":
                continue
            if (relative, function) == ("repro/exec/remote.py", "start_local_worker"):
                continue
            offenders.append(f"{relative}:{line} ({function})")
    assert offenders == []
