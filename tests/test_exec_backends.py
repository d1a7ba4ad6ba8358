"""The executor layer: backends, registry, the ``map_specs`` contract,
and the determinism-parity guarantee (serial == thread == process ==
remote, byte for byte).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dataset import (
    CurationConfig,
    CurationPipeline,
    SamplingConfig,
    hash_address_id,
    write_dataset_csv,
)
from repro.errors import ConfigurationError, UnknownCityError
from repro.exec import (
    EXECUTOR_BACKENDS,
    DistributedExecutor,
    Executor,
    ProcessPoolBackend,
    SerialExecutor,
    ThreadPoolBackend,
    build_executor,
    default_max_workers,
    local_worker_pool,
    resolve_executor,
)
from repro.exec.spec import ShardSpec, run_shard_spec
from repro.settings import RunSettings
from repro.world import WorldConfig

BACKENDS = ["serial", "thread", "process"]

# Two 36-task shards (AT&T and Cox): cheap enough to curate per backend.
SPEC_WORLD = WorldConfig(seed=11, scale=0.02, cities=("wichita",))
SPEC_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.05, min_samples=3), n_workers=5
)


def _spec(isp, start=0, stop=None, city="wichita"):
    return ShardSpec(
        world=SPEC_WORLD, city=city, isp=isp, config=SPEC_CONFIG,
        start=start, stop=stop,
    )


@pytest.fixture(scope="module")
def whole_shards():
    """Each shard's observations, run whole on the calling thread."""
    return {isp: run_shard_spec(_spec(isp))[0] for isp in ("att", "cox")}


# ----------------------------------------------------------------------
# Executor contract
# ----------------------------------------------------------------------
class TestExecutorContract:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_resolve_by_name(self, name):
        executor = resolve_executor(name)
        assert isinstance(executor, Executor)
        assert executor.name == name

    def test_resolve_none_is_serial(self):
        assert resolve_executor(None).name == "serial"

    def test_resolve_passthrough(self):
        executor = ThreadPoolBackend(max_workers=3)
        assert resolve_executor(executor) is executor

    def test_resolve_unknown_raises(self):
        for name in ("cluster", "async"):
            with pytest.raises(
                ConfigurationError,
                match=rf"unknown executor backend '{name}' "
                r"\(available: serial, thread, process, remote\)",
            ):
                resolve_executor(name)

    def test_registry_names(self):
        assert EXECUTOR_BACKENDS == ("serial", "thread", "process", "remote")

    def test_cli_rejects_async_backend(self, tmp_path, capsys):
        from repro.dataset.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "--backend", "async", "--out", str(tmp_path / "rel.csv"),
                "--cities", "wichita", "--scale", "0.02",
            ])
        assert excinfo.value.code == 2
        assert "invalid choice: 'async'" in capsys.readouterr().err
        assert not (tmp_path / "rel.csv").exists()

    def test_resolve_remote_reads_env_fleet(self, monkeypatch):
        monkeypatch.delenv("REPRO_ELASTIC", raising=False)
        monkeypatch.setenv("REPRO_REMOTE_WORKERS", "127.0.0.1:7071")
        executor = build_executor(
            replace(RunSettings.from_env(), backend="remote")
        )
        assert executor.name == "remote"
        assert executor.addresses == (("127.0.0.1", 7071),)

    def test_resolve_remote_without_fleet_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_WORKERS", raising=False)
        with pytest.raises(ConfigurationError, match="REPRO_REMOTE_WORKERS"):
            resolve_executor("remote")

    def test_resolve_remote_names_build_executor(self, monkeypatch):
        # A fleet in the environment does not help: a name carries none,
        # so the error points at the call that reads it.
        monkeypatch.setenv("REPRO_REMOTE_WORKERS", "127.0.0.1:7071")
        with pytest.raises(
            ConfigurationError, match=r"build_executor\(RunSettings\.from_env\(\)\)"
        ):
            resolve_executor("remote")

    def test_default_max_workers_floor(self):
        assert default_max_workers() >= 2

    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ThreadPoolBackend(max_workers=4),
            ProcessPoolBackend(max_workers=2),
        ],
        ids=BACKENDS,
    )
    def test_map_preserves_item_order(self, executor, whole_shards):
        """``map_specs`` returns results in spec order, across specs
        from different shards and spans."""
        cuts = [("att", 20, None), ("cox", 0, 9), ("att", 0, 20), ("cox", 9, None)]
        outcomes = executor.map_specs(
            [_spec(isp, start, stop) for isp, start, stop in cuts]
        )
        assert [observations for observations, _wall in outcomes] == [
            whole_shards[isp][start:stop] for isp, start, stop in cuts
        ]

    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ThreadPoolBackend(max_workers=4),
        ],
        ids=["serial", "thread"],
    )
    def test_map_propagates_exceptions(self, executor):
        """The first failing spec in spec order raises from ``map_specs``."""
        specs = [
            _spec("cox"),
            _spec("cox", city="atlantis"),
            _spec("cox", city="lemuria"),
        ]
        with pytest.raises(UnknownCityError, match="atlantis"):
            executor.map_specs(specs)

    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ThreadPoolBackend(),
            ProcessPoolBackend(),
        ],
        ids=BACKENDS,
    )
    def test_map_empty(self, executor):
        assert executor.map_specs([]) == []

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadPoolBackend(max_workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(max_workers=0)


# ----------------------------------------------------------------------
# Determinism parity (the tentpole guarantee)
# ----------------------------------------------------------------------
# The serial reference is the session-scoped ``tiny_dataset`` fixture: it
# is curated with exactly this configuration on the default (serial)
# backend, so reusing it avoids a redundant multi-second curation here —
# ``test_serial_recuration_matches_fixture`` pins the equivalence.


def _curate(world, backend):
    return CurationPipeline(
        world,
        CurationConfig(
            sampling=SamplingConfig(fraction=0.10, min_samples=8), n_workers=20
        ),
        executor=backend,
    ).curate()


class TestDeterminismParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_byte_identical(
        self, tiny_world, tiny_dataset, backend, tmp_path
    ):
        dataset = _curate(tiny_world, backend)
        assert dataset.observations == tiny_dataset.observations

        # Byte-level check: the serialized releases are identical files.
        reference_path = tmp_path / "serial.csv"
        candidate_path = tmp_path / f"{backend}.csv"
        write_dataset_csv(tiny_dataset, reference_path)
        write_dataset_csv(dataset, candidate_path)
        assert candidate_path.read_bytes() == reference_path.read_bytes()

        # And the privacy-hash streams line up record for record.
        assert [o.address_id for o in dataset] == [
            o.address_id for o in tiny_dataset
        ]

    def test_serial_recuration_matches_fixture(self, tiny_world, tiny_dataset):
        """A fresh serial curation reproduces the session fixture exactly
        (run-to-run determinism, and the anchor that makes ``tiny_dataset``
        a valid serial reference for the backend comparisons above)."""
        assert _curate(tiny_world, "serial").observations == (
            tiny_dataset.observations
        )

    def test_run_report_backend_names(self, tiny_world):
        pipeline = CurationPipeline(
            tiny_world,
            CurationConfig(
                sampling=SamplingConfig(fraction=0.10, min_samples=8),
                n_workers=20,
            ),
            executor="thread",
        )
        pipeline.curate(isps=("cox",))
        assert pipeline.last_run is not None
        assert pipeline.last_run.backend == "thread"
        assert pipeline.last_run.shards == (("new-orleans", "cox"),)
        assert pipeline.last_run.executed_shards == 1
        assert pipeline.last_run.cached_shards == 0

    def test_hash_address_id_is_backend_free(self):
        """The privacy hash depends only on its inputs (sanity anchor for
        the parity suite's stream comparison)."""
        assert hash_address_id("12 Oak Ave", "70112", "s") == hash_address_id(
            "12 Oak Ave", "70112", "s"
        )


# ----------------------------------------------------------------------
# Remote backend parity (loopback workers)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def loopback_fleet():
    """Two loopback worker processes shared by the remote parity tests."""
    with local_worker_pool(count=2, width=2) as addresses:
        yield addresses


class TestRemoteBackendParity:
    """The remote backend joins the byte-identity matrix: specs shipped
    to worker *processes* (which rebuild the world from configuration)
    must merge into the exact dataset the in-process serial loop curates.
    """

    def test_remote_byte_identical_to_serial(
        self, tiny_world, tiny_dataset, loopback_fleet, tmp_path
    ):
        executor = DistributedExecutor(workers=loopback_fleet)
        dataset = _curate(tiny_world, executor)
        assert dataset.observations == tiny_dataset.observations

        reference_path = tmp_path / "serial.csv"
        candidate_path = tmp_path / "remote.csv"
        write_dataset_csv(tiny_dataset, reference_path)
        write_dataset_csv(dataset, candidate_path)
        assert candidate_path.read_bytes() == reference_path.read_bytes()

    def test_remote_run_report(self, tiny_world, loopback_fleet):
        executor = DistributedExecutor(workers=loopback_fleet)
        pipeline = CurationPipeline(
            tiny_world,
            CurationConfig(
                sampling=SamplingConfig(fraction=0.10, min_samples=8),
                n_workers=20,
            ),
            executor=executor,
        )
        pipeline.curate(isps=("cox",))
        run = pipeline.last_run
        assert run.backend == "remote"
        assert run.executed_shards == 1
        assert run.replayed_queries > 0
        # The worker measured real wall time inside its own process.
        assert run.shard_timings[0].wall_seconds > 0.0

    def test_remote_fleet_width_drives_auto_chunking(self, loopback_fleet):
        executor = DistributedExecutor(workers=loopback_fleet)
        # Two workers x width 2, as advertised over ping.
        assert executor.width == 4
