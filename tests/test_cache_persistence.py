"""The persistent cache tier and incremental re-curation, locked down by
golden digests.

Four layers of guarantees:

* **Store properties** — atomic writes, LRU eviction under a byte cap,
  corrupted/version-mismatched entries degrade to misses, concurrent
  writers never leave partial files.
* **Golden digests** — the curated datasets for two pinned seed
  configurations must hash to checked-in SHA-256 values on every backend,
  cold, warm-from-disk, and incrementally re-curated.  Any pipeline drift
  shows up here as a digest mismatch.
* **Incremental re-curation** — a config change scoped to one ISP
  re-dispatches exactly that ISP's shards (asserted via the replay
  counter); everything else loads from cache.
* **Cross-process reuse** — a second CLI invocation against the same
  ``REPRO_CACHE_DIR`` replays zero BQT queries and writes a byte-identical
  release file.
"""

from __future__ import annotations

import json
import re
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.dataset.records import AddressObservation, PlanObservation
from repro.exec import (
    STORE_VERSION,
    DiskShardStore,
    QueryResultCache,
    ShardMeta,
    build_result_cache,
    shard_digest,
)
from repro.exec.store import decode_entry, encode_entry, observation_to_dict
from repro.experiments import (
    clear_context_cache,
    context_cache_size,
    get_context,
    shared_result_cache,
)
from repro.settings import RunSettings
from repro.world import WorldConfig, build_world

ROOT = Path(__file__).resolve().parent.parent

BACKENDS = ["serial", "thread", "process"]

SMALL_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=5), n_workers=10
)

# ----------------------------------------------------------------------
# Golden content digests for the seed configurations.  Regenerate with:
#   PYTHONPATH=src python -c "
#     from repro.dataset import *; from repro.world import *;
#     w = build_world(WorldConfig(seed=5, scale=0.05, cities=('wichita',)));
#     print(CurationPipeline(w, CurationConfig(sampling=SamplingConfig(
#         fraction=0.10, min_samples=5), n_workers=10)).curate().content_digest())"
# A change here is a deliberate pipeline-behavior change and must be
# called out in the PR description.
#
# Last regenerated: the straggler-aware scheduler PR, which made every
# task's stochastic draws content-keyed (task-pure streams + offset-free
# clock intervals) so sub-shard chunks replay byte-identically.  The
# elapsed-time distribution is unchanged in law; individual draws moved.
# ----------------------------------------------------------------------
GOLDEN_WICHITA_SEED5 = (
    "20a00c4197b018f9ded3132e95bf1d372ad7d98e87945cc4a7fde6f8a8640def"
)
GOLDEN_NOLA_SEED42 = (
    "15d190878bef7e483cf7c5e82059222566074b6a293edba3245562055c3d67a0"
)


@pytest.fixture(scope="module")
def small_world():
    """One small city, two ISPs (att, cox): cheap enough to curate often."""
    return build_world(WorldConfig(seed=5, scale=0.05, cities=("wichita",)))


def _observation(i: int, isp: str = "cox") -> AddressObservation:
    return AddressObservation(
        address_id=f"addr-{i:04x}",
        city="wichita",
        block_group="200670001001",
        isp=isp,
        status="plans",
        plans=(
            PlanObservation(
                name="plan", download_mbps=100.0, upload_mbps=10.0,
                monthly_price=50.0,
            ),
        ),
        elapsed_seconds=1.5 + i,
    )


def _shard(tag: str, n: int = 3):
    keys = tuple(f"key-{tag}-{i:02d}" for i in range(n))
    observations = tuple(_observation(i) for i in range(n))
    return keys, observations


# ----------------------------------------------------------------------
# Store properties
# ----------------------------------------------------------------------
class TestDiskShardStore:
    def test_roundtrip_across_instances(self, tmp_path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations, meta=ShardMeta(city="wichita", isp="cox"))
        # A fresh instance (fresh process, conceptually) sees the entry.
        reopened = DiskShardStore(tmp_path / "s")
        assert reopened.get(keys) == observations
        (entry,) = reopened.entries()
        assert entry.meta.city == "wichita"
        assert entry.meta.isp == "cox"
        assert entry.n_observations == len(observations)

    def test_get_unknown_is_miss(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        assert store.get(("nope",)) is None
        assert store.get(()) is None

    def test_different_keys_never_alias(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        keys, observations = _shard("a")
        store.put(keys, observations)
        assert store.get(keys[:-1]) is None
        assert store.get(keys + ("extra",)) is None

    def test_eviction_respects_byte_cap_and_lru_order(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        shards = {tag: _shard(tag) for tag in ("a", "b", "c", "d")}
        store.put(*shards["a"])
        entry_bytes = store.total_bytes()
        # Room for two entries (uniform content shape => uniform size).
        store.max_bytes = int(entry_bytes * 2.5)

        store.put(*shards["b"])
        store.put(*shards["c"])  # evicts a (LRU)
        assert store.get(shards["a"][0]) is None
        assert store.get(shards["b"][0]) is not None  # touch b: c is now LRU
        store.put(*shards["d"])  # evicts c, keeps freshly-touched b
        assert store.get(shards["c"][0]) is None
        assert store.get(shards["b"][0]) is not None
        assert store.get(shards["d"][0]) is not None
        assert len(store) == 2
        assert store.total_bytes() <= store.max_bytes

    def test_eviction_is_observable_in_manifest(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        a, b = _shard("a"), _shard("b")
        store.put(*a)
        store.max_bytes = int(store.total_bytes() * 1.5)
        store.put(*b)
        digests = [entry.digest for entry in store.entries()]
        assert digests == [shard_digest(b[0])]

    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        digest = shard_digest(keys)
        path = tmp_path / "s" / "objects" / digest[:2] / f"{digest}.json"
        path.write_bytes(b"\x00garbage{{{")
        assert store.get(keys) is None
        assert not path.exists()
        # The store recovers: a re-put serves again.
        store.put(keys, observations)
        assert store.get(keys) == observations

    def test_version_mismatch_is_a_miss_and_file_survives(self, tmp_path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        digest = shard_digest(keys)
        path = tmp_path / "s" / "objects" / digest[:2] / f"{digest}.json"
        payload = json.loads(path.read_bytes())
        payload["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.get(keys) is None
        # The file may belong to a newer code version sharing this root:
        # it must be left in place, not deleted like a corrupt entry.
        assert path.exists()

    def test_truncated_entry_is_a_miss(self, tmp_path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        digest = shard_digest(keys)
        path = tmp_path / "s" / "objects" / digest[:2] / f"{digest}.json"
        path.write_bytes(path.read_bytes()[:40])  # simulated torn write
        assert store.get(keys) is None

    def test_corrupted_manifest_starts_fresh_and_adopts_objects(self, tmp_path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        (tmp_path / "s" / "manifest.json").write_text("not json at all")
        reopened = DiskShardStore(tmp_path / "s")
        assert len(reopened) == 0  # manifest lost ...
        assert reopened.get(keys) == observations  # ... objects adopted
        assert len(reopened) == 1

    def test_legacy_costs_section_is_dropped(self, tmp_path):
        """Older manifests carry observed shard wall times under
        ``costs``: such a manifest loads, its entries serve, and neither
        a store that loaded it nor one merging it on save writes it back."""
        root = tmp_path / "s"
        shards = [_shard(tag) for tag in ("a", "b")]
        merging = DiskShardStore(root)
        for keys, observations in shards:
            merging.put(keys, observations)
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_bytes())
        manifest["costs"] = {
            "wichita\x1fcox": {
                "config_digest": "d", "wall_seconds": 1.25, "task_count": 3,
                "pacing_time_scale": 0.0,
            },
        }
        manifest_path.write_text(json.dumps(manifest))

        loading = DiskShardStore(root)
        for keys, observations in shards:
            assert loading.get(keys) == observations
        for store, tag, n_entries in ((loading, "c", 3), (merging, "d", 4)):
            store.put(*_shard(tag))
            manifest = json.loads(manifest_path.read_bytes())
            assert "costs" not in manifest
            assert len(manifest["entries"]) == n_entries

    def test_purge_empties_everything(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        for tag in ("a", "b"):
            store.put(*_shard(tag))
        store.purge()
        assert len(store) == 0
        assert store.total_bytes() == 0
        assert store.get(_shard("a")[0]) is None

    def test_concurrent_thread_writes_leave_no_partial_files(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        shards = [_shard(f"t{i}", n=4) for i in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda s: store.put(*s), shards))
        assert not list((tmp_path / "s").rglob("*.tmp"))
        for keys, observations in shards:
            assert store.get(keys) == observations

    def test_two_process_manifest_contention_loses_no_rows(
        self, tmp_path, child_env
    ):
        """Regression for the manifest write race: two *processes*
        sharing one cache dir (exactly what remote workers + coordinator
        do) interleave manifest read-modify-writes.  Without the
        ``manifest.lock`` + merge-on-save, the last writer's view wins
        and the other process's rows vanish from the manifest (the
        objects survive, but ``entries()``/`cache ls`/eviction all go
        blind to them).  With it, the final manifest is the union."""
        root = tmp_path / "s"
        per_worker = 6
        script = (
            "import sys\n"
            "from repro.exec import DiskShardStore\n"
            "from repro.dataset.records import AddressObservation\n"
            "worker = int(sys.argv[2])\n"
            "store = DiskShardStore(sys.argv[1])\n"
            f"for i in range({per_worker}):\n"
            "    keys = [f'key-w{worker}-{i}-{j}' for j in range(2)]\n"
            "    obs = [AddressObservation(address_id=f'a{j}', city='c',\n"
            "        block_group='bg', isp='cox', status='plans', plans=(),\n"
            "        elapsed_seconds=float(j)) for j in range(2)]\n"
            "    store.put(keys, obs)\n"
        )
        env = child_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(worker)], env=env
            )
            for worker in range(2)
        ]
        assert all(proc.wait(timeout=120) == 0 for proc in procs)
        # Reopen: the manifest alone (no object adoption) must already
        # list every row both writers produced.
        store = DiskShardStore(root)
        assert len(store) == 2 * per_worker
        assert store.total_bytes() > 0

    def test_concurrent_process_writes_leave_no_partial_files(
        self, tmp_path, child_env
    ):
        """Separate OS processes hammer one store root (the process-backend
        sharing scenario); every entry must come out whole."""
        root = tmp_path / "s"
        script = (
            "import sys\n"
            "from repro.exec import DiskShardStore\n"
            "from repro.dataset.records import AddressObservation\n"
            "worker = int(sys.argv[2])\n"
            "store = DiskShardStore(sys.argv[1])\n"
            "for i in range(8):\n"
            "    tag = 'shared' if i % 2 else f'w{worker}-{i}'\n"
            "    keys = [f'key-{tag}-{j}' for j in range(3)]\n"
            "    obs = [AddressObservation(address_id=f'a{j}', city='c',\n"
            "        block_group='bg', isp='cox', status='plans', plans=(),\n"
            "        elapsed_seconds=float(j)) for j in range(3)]\n"
            "    store.put(keys, obs)\n"
        )
        env = child_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(worker)], env=env
            )
            for worker in range(4)
        ]
        assert all(proc.wait(timeout=60) == 0 for proc in procs)
        assert not list(root.rglob("*.tmp"))
        store = DiskShardStore(root)
        keys = [f"key-shared-{j}" for j in range(3)]
        observations = store.get(keys)
        assert observations is not None and len(observations) == 3

    def test_writer_killed_mid_merge_blocks_nobody_and_loses_no_rows(
        self, tmp_path, child_env
    ):
        """Regression: a writer holding the ``manifest.lock`` flock is
        SIGKILLed *mid-merge* — after acquiring the lock and writing its
        temp manifest, before the atomic rename.  Survivors must (a) not
        deadlock: the kernel drops an flock with its holder, and (b) not
        lose rows: the atomic temp-then-rename means the manifest on
        disk is always a complete earlier version, never the victim's
        partial bytes, so the survivor's merge-on-save still sees every
        previously-published row."""
        import signal
        import threading

        root = tmp_path / "s"
        store = DiskShardStore(root)
        keys_a, obs_a = _shard("before-crash")
        store.put(keys_a, obs_a)
        store.flush()

        # The victim: take the flock exactly as _save_manifest does,
        # write a garbage temp file next to the manifest (the partial
        # state an interrupted merge leaves), say so, then hang inside
        # the critical section until SIGKILL.
        victim_script = (
            "import fcntl, sys, time\n"
            "from pathlib import Path\n"
            "root = Path(sys.argv[1])\n"
            "handle = open(root / 'manifest.lock', 'a+b')\n"
            "fcntl.flock(handle.fileno(), fcntl.LOCK_EX)\n"
            "(root / '.manifest.99999.1.tmp').write_bytes(b'{\"partial')\n"
            "print('LOCKED', flush=True)\n"
            "time.sleep(600)\n"
        )
        env = child_env()
        victim = subprocess.Popen(
            [sys.executable, "-c", victim_script, str(root)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert victim.stdout.readline().strip() == "LOCKED"

            # The survivor tries to publish a new row: put() saves the
            # manifest inline, so it blocks on the victim's flock.
            survivor = DiskShardStore(root)
            keys_b, obs_b = _shard("after-crash")
            flushed = threading.Event()

            def blocked_put():
                survivor.put(keys_b, obs_b)
                flushed.set()

            thread = threading.Thread(target=blocked_put, daemon=True)
            thread.start()
            # Let the survivor actually reach (and block on) the flock
            # before the holder dies — the interesting interleaving.
            import time as _time

            _time.sleep(0.5)
            assert not flushed.is_set(), "flock did not block the survivor"
            # Kill the lock holder mid-critical-section; the kernel must
            # release the flock and unblock the survivor promptly.
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            assert flushed.wait(timeout=30), (
                "survivor put deadlocked behind a dead flock holder"
            )
            thread.join(timeout=10)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
                victim.wait(timeout=10)
            if victim.stdout is not None:
                victim.stdout.close()

        # No row lost: a fresh open sees both shards in the manifest.
        reopened = DiskShardStore(root)
        assert reopened.get(keys_a) == obs_a
        assert reopened.get(keys_b) == obs_b
        assert len(reopened) == 2
        # And the victim's partial temp file neither corrupted the
        # manifest nor survives a store cleanup pass... it is ignored
        # garbage (atomic-rename names are pid-unique, never reused).
        manifest = json.loads((root / "manifest.json").read_bytes())
        assert len(manifest["entries"]) == 2


# ----------------------------------------------------------------------
# Entry decoding: the column layout and its type rule
# ----------------------------------------------------------------------
def _entry_file(root: Path, keys) -> Path:
    digest = shard_digest(keys)
    return root / "objects" / digest[:2] / f"{digest}.json"


def _rewrite_columns(path: Path, edit) -> None:
    """Apply ``edit`` to an entry file's ``columns`` object in place."""
    payload = json.loads(path.read_bytes())
    edit(payload["columns"])
    path.write_text(json.dumps(payload))


def _set_field(columns: dict, path: tuple, value) -> None:
    *parents, last = path
    for step in parents:
        columns = columns[step]
    columns[last] = value


#: Where each field of the shard ``_shard`` writes lives in the column
#: layout: one observation's item of a plain column, or the distinct
#: value of a ``[values, index]`` column (one value: every observation
#: of the shard shares it).
_STRING_FIELDS = (
    ("address_id", 1),
    ("city", 0, 0),
    ("block_group", 0, 0),
    ("isp", 0, 0),
    ("status", 0, 0),
    ("plans", 0, 0, 0, 0),  # plan list 0, plan 0, name
)
_NUMBER_FIELDS = (
    ("elapsed_seconds", 1),
    ("plans", 0, 0, 0, 1),  # down
    ("plans", 0, 0, 0, 2),  # up
    ("plans", 0, 0, 0, 3),  # price
)
#: The ``[values, index]`` columns.
_INDEXED = ("city", "block_group", "isp", "status", "plans")

#: ``(columns path, value)``: a field of the column layout and a JSON
#: value of a type or shape it must refuse.
_WRONG_TYPED = [
    *(
        (path, value)
        for path in _STRING_FIELDS
        for value in (["plan"], {"name": "plan"}, None, 7)
    ),
    *(
        (path, value)
        for path in _NUMBER_FIELDS
        for value in ("300", True, False, None)
    ),
    # One distinct plan list that is not a list of plans.
    *(
        (("plans", 0, 0), value)
        for value in ({"name": "plan"}, "plan", None, 3, [["plan"]], ["plan"], [None])
    ),
    # A plan that is not a [name, down, up, price] array.
    *(
        (("plans", 0, 0, 0), value)
        for value in (
            ["plan", 100.0, 10.0],
            ["plan", 100.0, 10.0, 50.0, 1.0],
            [],
            {"name": "plan", "down": 100.0, "up": 10.0, "price": 50.0},
        )
    ),
    # An index that is not an in-range, non-negative int.
    *(
        ((column, 1, 1), value)
        for column in _INDEXED
        for value in (True, False, 0.0, -1, 1, "0", None)
    ),
    # A column that is not a [values, index] pair or a plain array.
    *(
        ((column,), value)
        for column in _INDEXED
        for value in ([[]], [[], [], []], {"values": [], "index": []}, None, "x")
    ),
    *(((column, 0), value) for column in _INDEXED for value in ("x", None, {})),
    *(((column, 1), value) for column in _INDEXED for value in ("x", None, {})),
    *(
        ((column,), value)
        for column in ("address_id", "elapsed_seconds")
        for value in (None, "x", {"0": 1})
    ),
]
_WRONG_TYPED_IDS = [f"{'.'.join(map(str, p))}={v!r}" for p, v in _WRONG_TYPED]


#: Damage beyond one wrong field: a missing column, a ragged column, a
#: ``columns`` object of the wrong type.
_DAMAGED_COLUMNS = {
    **{
        f"missing-{name}": (lambda columns, name=name: columns.pop(name))
        for name in ("address_id", "elapsed_seconds", *_INDEXED)
    },
    **{
        f"ragged-{name}": (lambda columns, name=name: columns[name].pop())
        for name in ("address_id", "elapsed_seconds")
    },
    **{
        f"ragged-{name}-index": (lambda columns, name=name: columns[name][1].pop())
        for name in _INDEXED
    },
    "long-address_id": lambda columns: columns["address_id"].append("extra"),
    "long-status-index": lambda columns: columns["status"][1].append(0),
}


def _rewrite_entry(path: Path, key: str, value) -> None:
    """Set one top-level key of an entry file."""
    payload = json.loads(path.read_bytes())
    payload[key] = value
    path.write_text(json.dumps(payload))


def _rewrite_meta(path: Path, field, value) -> None:
    """Set one field of an entry file's ``meta`` (all of it for None)."""
    payload = json.loads(path.read_bytes())
    if field is None:
        payload["meta"] = value
    else:
        payload["meta"][field] = value
    path.write_text(json.dumps(payload))


#: ``(field, value)``: an entry ``meta`` the type rule refuses.  A field
#: of None replaces the whole ``meta`` object.
_WRONG_META = [
    (None, ["wichita", "cox"]),
    (None, "wichita"),
    (None, None),
    (None, {"city": "wichita", "isp": "cox", "scale": 0.05, "config_digest": "d"}),
    ("seed", "x"),
    ("seed", [1]),
    ("seed", 5.0),
    ("seed", True),
    ("scale", "big"),
    ("scale", False),
    ("city", 7),
    ("isp", None),
    ("config_digest", ["d"]),
]
_WRONG_META_IDS = [f"{field or 'meta'}={value!r}" for field, value in _WRONG_META]


#: Ways to damage a ``find_stale`` candidate: unparseable bytes, a
#: wrong-typed field, a ragged column, an out-of-range index, a column
#: object that is not one, and each wrong-typed ``meta``.
_STALE_DAMAGE = {
    "garbage": lambda path: path.write_bytes(b"\x00garbage{{{"),
    "wrong-typed": lambda path: _rewrite_columns(
        path, lambda columns: _set_field(columns, ("plans", 0, 0, 0, 0), 5)
    ),
    "ragged": lambda path: _rewrite_columns(
        path, lambda columns: columns["elapsed_seconds"].pop()
    ),
    "index-out-of-range": lambda path: _rewrite_columns(
        path, lambda columns: _set_field(columns, ("plans", 1, 0), 1)
    ),
    "columns-not-an-object": lambda path: _rewrite_entry(path, "columns", []),
    **{
        name: (lambda path, field=field, value=value:
               _rewrite_meta(path, field, value))
        for name, (field, value) in zip(_WRONG_META_IDS, _WRONG_META)
    },
}


class TestEntryTypeRule:
    """Every column of an entry is type-checked; an entry that breaks the
    rule is malformed: deleted and reported as a miss."""

    @pytest.mark.parametrize("path, value", _WRONG_TYPED, ids=_WRONG_TYPED_IDS)
    def test_wrong_typed_entry_is_a_miss_and_removed(self, tmp_path, path, value):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        entry = _entry_file(tmp_path / "s", keys)
        _rewrite_columns(entry, lambda columns: _set_field(columns, path, value))
        assert store.get(keys) is None
        assert not entry.exists()

    @pytest.mark.parametrize("damage", list(_DAMAGED_COLUMNS))
    def test_damaged_columns_are_a_miss_and_removed(self, tmp_path, damage):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        entry = _entry_file(tmp_path / "s", keys)
        _rewrite_columns(entry, _DAMAGED_COLUMNS[damage])
        assert store.get(keys) is None
        assert not entry.exists()

    @pytest.mark.parametrize("value", [None, [], "columns", 3])
    def test_columns_not_an_object_is_a_miss_and_removed(self, tmp_path, value):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        entry = _entry_file(tmp_path / "s", keys)
        _rewrite_entry(entry, "columns", value)
        assert store.get(keys) is None
        assert not entry.exists()

    @pytest.mark.parametrize(
        "path", [("elapsed_seconds", 1), ("plans", 0, 0, 0, 3)],
        ids=["elapsed_seconds", "price"],
    )
    def test_int_too_large_for_a_float_is_a_miss(self, tmp_path, path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        entry = _entry_file(tmp_path / "s", keys)
        _rewrite_columns(entry, lambda columns: _set_field(columns, path, 10**400))
        assert store.get(keys) is None
        assert not entry.exists()

    def test_bool_equal_to_an_earlier_number_is_refused(self, tmp_path):
        """``True == 1.0``: a plan list must not pass by equalling an
        earlier, valid one."""
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        entry = _entry_file(tmp_path / "s", keys)

        def edit(columns):
            columns["plans"] = [
                [[["plan", 100.0, 1.0, 50.0]], [["plan", 100.0, True, 50.0]]],
                [0, 0, 1],
            ]

        _rewrite_columns(entry, edit)
        assert store.get(keys) is None
        assert not entry.exists()

    def test_int_numbers_decode_as_floats(self, tmp_path):
        """Another writer may spell a number as a JSON integer: it is
        accepted, and decoded as the float of the same value."""
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        entry = _entry_file(tmp_path / "s", keys)

        def edit(columns):
            columns["elapsed_seconds"] = [int(x) for x in columns["elapsed_seconds"]]
            columns["plans"][0] = [[["plan", 100, 10, 50]]]

        _rewrite_columns(entry, edit)
        decoded = store.get(keys)
        assert repr(decoded) == repr(
            tuple(replace(obs, elapsed_seconds=float(int(obs.elapsed_seconds)))
                  for obs in observations)
        )

    @pytest.mark.parametrize("adopted", [False, True], ids=["row", "adopted"])
    @pytest.mark.parametrize("field, value", _WRONG_META, ids=_WRONG_META_IDS)
    def test_wrong_typed_meta_is_a_miss_and_removed(
        self, tmp_path, field, value, adopted
    ):
        """With or without a manifest row: never served, never adopted."""
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(
            keys, observations,
            meta=ShardMeta(city="wichita", isp="cox", seed=5, scale=0.05,
                           config_digest="d"),
        )
        entry = _entry_file(tmp_path / "s", keys)
        _rewrite_meta(entry, field, value)
        if adopted:
            (tmp_path / "s" / "manifest.json").unlink()
            store = DiskShardStore(tmp_path / "s")
        assert store.get(keys) is None
        assert not entry.exists()
        assert len(store) == 0

    def test_rows_share_each_distinct_plan_list(self, tmp_path):
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        payload = json.loads(_entry_file(tmp_path / "s", keys).read_bytes())
        assert payload["columns"]["plans"] == [
            [[["plan", 100.0, 10.0, 50.0]]], [0, 0, 0]
        ]
        first, *rest = DiskShardStore(tmp_path / "s").get(keys)
        assert all(obs.plans is first.plans for obs in rest)

    @pytest.mark.parametrize("damage", list(_STALE_DAMAGE))
    def test_find_stale_drops_a_bad_newest_entry(self, tmp_path, damage):
        store = DiskShardStore(tmp_path / "s")
        shards = {}
        for tag in ("older", "newer"):
            keys = tuple(f"key-{tag}-{i}" for i in range(3))
            observations = tuple(
                replace(_observation(i), address_id=f"{tag}-{i}") for i in range(3)
            )
            store.put(
                keys, observations,
                meta=ShardMeta(city="wichita", isp="cox", config_digest=tag),
            )
            shards[tag] = keys, observations
        newest = _entry_file(tmp_path / "s", shards["newer"][0])
        _STALE_DAMAGE[damage](newest)
        found = store.find_stale("wichita", "cox")
        assert found is not None
        observations, meta = found
        assert observations == shards["older"][1]
        assert meta.config_digest == "older"
        assert not newest.exists()


def _version_1_entry(keys, observations, meta: ShardMeta) -> bytes:
    """An entry as the row layout (store version 1) wrote it: one JSON
    object per observation."""
    return json.dumps(
        {
            "version": 1,
            "digest": shard_digest(keys),
            "keys": list(keys),
            "meta": asdict(meta),
            "observations": [observation_to_dict(obs) for obs in observations],
        },
        separators=(",", ":"),
    ).encode("utf-8")


class TestForeignVersions:
    """A reader that meets another entry version sees a clean miss,
    never a wrong decode."""

    def test_version_1_entry_is_a_clean_miss_until_the_next_put(self, tmp_path):
        keys, observations = _shard("a")
        meta = ShardMeta(city="wichita", isp="cox", seed=5, scale=0.05,
                         config_digest="d")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations, meta=meta)
        entry = _entry_file(tmp_path / "s", keys)
        old = _version_1_entry(keys, observations, meta)
        entry.write_bytes(old)

        reopened = DiskShardStore(tmp_path / "s")
        assert reopened.get(keys) is None
        assert entry.read_bytes() == old  # left on disk, untouched
        assert len(reopened) == 1  # and its manifest row kept
        assert reopened.find_stale("wichita", "cox") is None

        reopened.put(keys, observations, meta=meta)
        assert json.loads(entry.read_bytes())["version"] == STORE_VERSION
        assert DiskShardStore(tmp_path / "s").get(keys) == observations

    def test_version_1_manifest_is_read(self, tmp_path):
        """The manifest's rows did not change with the entries', so a
        store filled by the row layout keeps its manifest."""
        keys, observations = _shard("a")
        store = DiskShardStore(tmp_path / "s")
        store.put(keys, observations)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_bytes())
        assert manifest["version"] == 1
        assert len(DiskShardStore(tmp_path / "s")) == 1

    @pytest.mark.parametrize("version", [1, STORE_VERSION + 1, None, "2"])
    def test_decoder_refuses_other_versions(self, version):
        keys, observations = _shard("a")
        entry = encode_entry(keys, observations, ShardMeta())
        entry["version"] = version
        with pytest.raises(ValueError, match=f"version {version!r}"):
            decode_entry(entry)


#: Plan numbers that an equality match would merge or split wrongly.
_EDGE_NUMBERS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.0, 2.0,
                 1e16, 5e-324]
_NUMBERS = st.sampled_from(_EDGE_NUMBERS) | st.floats()


@st.composite
def _plan_list(draw):
    return tuple(
        PlanObservation(
            draw(st.sampled_from(["Basic", "Gig"]) | st.text(max_size=3)),
            draw(_NUMBERS), draw(_NUMBERS), draw(_NUMBERS),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )


@st.composite
def _twin_lists(draw):
    """A plan list and copies of it that differ in one number by an edge
    value: the encoder must keep every one apart."""
    base = draw(_plan_list().filter(bool))
    twins = [base]
    for value in _EDGE_NUMBERS:
        plans = list(base)
        at = draw(st.integers(min_value=0, max_value=len(plans) - 1))
        field = draw(st.sampled_from(["download_mbps", "upload_mbps", "monthly_price"]))
        plans[at] = replace(plans[at], **{field: value})
        twins.append(tuple(plans))
    return twins


@st.composite
def _shard_observations(draw):
    """Observations whose plan lists repeat, some by object and some as
    equal copies, drawn from a small pool that includes edge twins."""
    pool = draw(st.lists(_plan_list(), min_size=1, max_size=4)) + draw(_twin_lists())
    observations = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        plans = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            plans = tuple(replace(p) for p in plans)  # equal, not identical
        observations.append(
            AddressObservation(
                address_id=draw(st.text(max_size=4)),
                city=draw(st.sampled_from(["wichita", "durham"])),
                block_group=draw(st.sampled_from(["bg-1", "bg-2", ""])),
                isp=draw(st.sampled_from(["cox", "att"])),
                status=draw(st.sampled_from(["plans", "no_service", "unknown"])),
                plans=plans,
                elapsed_seconds=draw(_NUMBERS),
            )
        )
    return tuple(observations)


def _bits(plans) -> tuple:
    return tuple(
        (p.name, *(struct.pack("<d", x) for x in
                   (p.download_mbps, p.upload_mbps, p.monthly_price)))
        for p in plans
    )


class TestCodecRoundTrip:
    """``decode_entry(encode_entry(...))`` gives back the observations
    bit for bit, directly and through JSON: compared by ``repr``, which
    tells ``-0.0`` from ``0.0``."""

    @settings(max_examples=300, deadline=None)
    @given(observations=_shard_observations())
    def test_round_trip_is_repr_equal(self, observations):
        keys = [f"k{i}" for i in range(len(observations))]
        entry = encode_entry(keys, observations, ShardMeta(city="wichita"))
        expected = repr(observations)
        assert repr(decode_entry(entry)) == expected
        # As read back from an entry file: JSON spells -0.0, NaN and inf.
        assert repr(decode_entry(json.loads(json.dumps(entry)))) == expected
        # One table row per distinct list of exact bits: nothing merged
        # that differs, nothing repeated that does not.
        table, index = entry["columns"]["plans"]
        assert len(table) == len({_bits(obs.plans) for obs in observations})
        assert len(index) == len(observations)

    def test_edge_twins_stay_apart(self):
        plan = PlanObservation("Gig", 1000.0, 0.0, 80.0)
        twins = [
            (replace(plan, upload_mbps=value),) for value in _EDGE_NUMBERS
        ]
        observations = tuple(
            replace(_observation(i), plans=plans) for i, plans in enumerate(twins)
        )
        keys = [f"k{i}" for i in range(len(observations))]
        entry = json.loads(json.dumps(encode_entry(keys, observations, ShardMeta())))
        assert len(entry["columns"]["plans"][0]) == len(twins)
        assert repr(decode_entry(entry)) == repr(observations)


# ----------------------------------------------------------------------
# Two-tier cache behavior
# ----------------------------------------------------------------------
class TestTwoTierCache:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        keys, observations = _shard("a")
        writer = QueryResultCache(store=DiskShardStore(tmp_path / "s"))
        writer.store_shard(keys, observations)
        assert writer.stats.disk_stores == 1

        reader = QueryResultCache(store=DiskShardStore(tmp_path / "s"))
        assert reader.lookup_shard(keys) == observations
        assert reader.stats.disk_shard_hits == 1
        # Promoted: the second lookup is a pure memory hit.
        assert reader.lookup_shard(keys) == observations
        assert reader.stats.disk_shard_hits == 1
        assert reader.stats.shard_hits == 2

    def test_clear_memory_keeps_disk(self, tmp_path):
        keys, observations = _shard("a")
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "s"))
        cache.store_shard(keys, observations)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup_shard(keys) == observations  # via disk

    def test_clear_disk_purges_both_tiers(self, tmp_path):
        keys, observations = _shard("a")
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "s"))
        cache.store_shard(keys, observations)
        cache.clear(disk=True)
        assert cache.lookup_shard(keys) is None

    def test_build_result_cache_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert build_result_cache(enabled=False) is None
        assert build_result_cache().store is None
        explicit = build_result_cache(cache_dir=tmp_path / "x")
        assert explicit.store is not None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert build_result_cache().store is None  # the library reads no env
        via_env = build_result_cache(RunSettings.from_env().cache_dir)
        assert via_env.store is not None
        assert via_env.store.root == tmp_path / "env"


# ----------------------------------------------------------------------
# Golden digests: cold / warm-from-disk / incremental, on every backend
# ----------------------------------------------------------------------
def test_tiny_dataset_matches_golden(tiny_dataset):
    """The conftest fixture dataset (cache-wired) matches the pinned digest
    — so a warm-cache CI pass provably reruns the suite on identical data."""
    assert tiny_dataset.content_digest() == GOLDEN_NOLA_SEED42


def test_cold_serial_run_matches_golden(small_world):
    dataset = CurationPipeline(small_world, SMALL_CONFIG).curate()
    assert dataset.content_digest() == GOLDEN_WICHITA_SEED5


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenDigests:
    def test_cold_run(self, small_world, backend):
        dataset = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend
        ).curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5

    def test_warm_disk_run(self, small_world, backend, tmp_path):
        cold_cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        cold = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=cold_cache
        )
        assert cold.curate().content_digest() == GOLDEN_WICHITA_SEED5
        assert cold.last_run.replayed_queries > 0

        # Fresh memory tier over the same store root = a new process.
        warm_cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        warm = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=warm_cache
        )
        dataset = warm.curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5
        assert warm.last_run.replayed_queries == 0
        assert warm.last_run.disk_shards == warm.last_run.total_shards

    def test_incremental_run(self, small_world, backend, tmp_path):
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=cache
        ).curate()

        # Untouched config over a fresh process: still golden, zero replays.
        incremental_cache = QueryResultCache(
            store=DiskShardStore(tmp_path / "c")
        )
        pipeline = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=incremental_cache
        )
        dataset = pipeline.curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5
        assert pipeline.last_run.replayed_queries == 0


@pytest.mark.slow
class TestRemoteGoldenDigests:
    """The remote backend joins the golden matrix: specs executed by
    loopback worker *processes* — which rebuild the world from
    configuration and ship disk-store-format blobs back — must produce
    the pinned digests cold, warm-from-disk, and incrementally."""

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.exec import local_worker_pool

        with local_worker_pool(count=2, width=2) as addresses:
            yield addresses

    def _executor(self, fleet):
        from repro.exec import DistributedExecutor

        return DistributedExecutor(workers=fleet)

    def test_cold_run(self, small_world, fleet):
        dataset = CurationPipeline(
            small_world, SMALL_CONFIG, executor=self._executor(fleet)
        ).curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5

    def test_warm_disk_run(self, small_world, fleet, tmp_path):
        cold_cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        cold = CurationPipeline(
            small_world, SMALL_CONFIG, executor=self._executor(fleet),
            cache=cold_cache,
        )
        assert cold.curate().content_digest() == GOLDEN_WICHITA_SEED5
        assert cold.last_run.replayed_queries > 0

        # Fresh memory tier over the same store root = a new process:
        # worker blobs were promoted into the coordinator store, so the
        # warm run replays nothing and never talks to a worker.
        warm_cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        warm = CurationPipeline(
            small_world, SMALL_CONFIG, executor=self._executor(fleet),
            cache=warm_cache,
        )
        dataset = warm.curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5
        assert warm.last_run.replayed_queries == 0
        assert warm.last_run.disk_shards == warm.last_run.total_shards

    def test_incremental_run(self, small_world, fleet, tmp_path):
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        cold = CurationPipeline(
            small_world, SMALL_CONFIG, executor=self._executor(fleet),
            cache=cache,
        )
        cold.curate()

        changed = SMALL_CONFIG.with_isp_override("cox", politeness_seconds=4.0)
        pipeline = CurationPipeline(
            small_world, changed, executor=self._executor(fleet), cache=cache
        )
        incremental = pipeline.curate()
        assert pipeline.last_run.executed_shards == 1
        assert pipeline.last_run.cached_shards == 1

        scratch = CurationPipeline(small_world, changed).curate()
        assert incremental.observations == scratch.observations


class TestIncrementalRecuration:
    """A config change scoped to one ISP re-curates only that ISP's shard."""

    @pytest.mark.parametrize(
        "backend",
        [
            "serial",
            pytest.param("thread", marks=pytest.mark.slow),
            pytest.param("process", marks=pytest.mark.slow),
        ],
    )
    def test_one_isp_change_replays_one_shard(
        self, small_world, backend, tmp_path
    ):
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        cold = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=cache
        )
        cold.curate()
        assert cold.last_run.total_shards == 2  # (wichita, att), (wichita, cox)
        cold_replays = cold.last_run.replayed_queries

        changed = SMALL_CONFIG.with_isp_override("cox", politeness_seconds=4.0)
        pipeline = CurationPipeline(
            small_world, changed, executor=backend, cache=cache
        )
        incremental = pipeline.curate()
        assert pipeline.last_run.executed_shards == 1
        assert pipeline.last_run.cached_shards == 1
        assert 0 < pipeline.last_run.replayed_queries < cold_replays

        # The incremental dataset is byte-identical to a from-scratch run
        # of the changed config.
        scratch = CurationPipeline(small_world, changed, executor=backend).curate()
        assert incremental.observations == scratch.observations
        assert incremental.content_digest() == scratch.content_digest()

    def test_global_change_replays_everything(self, small_world, tmp_path):
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        CurationPipeline(small_world, SMALL_CONFIG, cache=cache).curate()
        # Global politeness change: every shard's digest moves.
        changed = replace(SMALL_CONFIG, politeness_seconds=4.0)
        pipeline = CurationPipeline(small_world, changed, cache=cache)
        pipeline.curate()
        assert pipeline.last_run.cached_shards == 0
        assert pipeline.last_run.executed_shards == 2

    def test_all_hit_run_saves_its_lru_touches(self, small_world, tmp_path):
        """A run that reads every shard from disk writes the manifest
        once, so eviction ranks entries by their last read."""
        root = tmp_path / "c"

        def clock() -> int:
            return json.loads((root / "manifest.json").read_bytes())["clock"]

        def curate(**kwargs) -> CurationPipeline:
            pipeline = CurationPipeline(
                small_world, SMALL_CONFIG,
                cache=QueryResultCache(store=DiskShardStore(root)),
            )
            pipeline.curate(**kwargs)
            return pipeline

        curate()  # fills att, then cox
        filled = clock()
        reader = curate()
        assert reader.last_run.disk_shards == reader.last_run.total_shards == 2
        assert clock() == filled + 2
        assert DiskShardStore(root)._manifest["clock"] == filled + 2
        curate(isps=("att",))  # att is now the most recently read
        assert clock() == filled + 3

        store = DiskShardStore(root)
        by_isp = {entry.meta.isp: entry.digest for entry in store.entries()}
        assert [entry.meta.isp for entry in store.entries()] == ["cox", "att"]
        store.max_bytes = store.total_bytes()
        store.put(*_shard("x"))  # over the cap: the least recently read goes
        remaining = {entry.digest for entry in store.entries()}
        assert by_isp["cox"] not in remaining
        assert by_isp["att"] in remaining

    def test_corrupted_shard_is_recurated_not_fatal(self, small_world, tmp_path):
        store = DiskShardStore(tmp_path / "c")
        cold = CurationPipeline(
            small_world,
            SMALL_CONFIG,
            cache=QueryResultCache(store=store),
        )
        first = cold.curate()
        # Corrupt exactly one shard on disk.
        victim = store.entries()[0]
        path = (
            tmp_path / "c" / "objects" / victim.digest[:2]
            / f"{victim.digest}.json"
        )
        path.write_text("{broken")
        pipeline = CurationPipeline(
            small_world,
            SMALL_CONFIG,
            cache=QueryResultCache(store=DiskShardStore(tmp_path / "c")),
        )
        second = pipeline.curate()
        assert pipeline.last_run.executed_shards == 1
        assert pipeline.last_run.cached_shards == 1
        assert second.observations == first.observations


# ----------------------------------------------------------------------
# Cross-process reuse via the CLI and REPRO_CACHE_DIR
# ----------------------------------------------------------------------
def _run_dataset_cli(out: Path, cache_dir: Path, env: dict) -> str:
    env = dict(env, REPRO_CACHE_DIR=str(cache_dir))
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.dataset",
            "--out", str(out),
            "--cities", "wichita",
            "--seed", "5", "--scale", "0.05",
            "--min-samples", "5", "--workers", "10",
        ],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _replayed(stdout: str) -> int:
    match = re.search(r"replayed (\d+) queries", stdout)
    assert match, f"no replay counter in output:\n{stdout}"
    return int(match.group(1))


@pytest.mark.slow
def test_cross_process_reuse_replays_nothing(tmp_path, child_env):
    cache_dir = tmp_path / "cache"
    first_out, second_out = tmp_path / "first.csv", tmp_path / "second.csv"

    first = _run_dataset_cli(first_out, cache_dir, child_env())
    assert _replayed(first) > 0
    assert (cache_dir / "manifest.json").exists()

    second = _run_dataset_cli(second_out, cache_dir, child_env())
    assert _replayed(second) == 0
    assert "(2 from disk)" in second
    assert first_out.read_bytes() == second_out.read_bytes()


# ----------------------------------------------------------------------
# Experiment-context cache hygiene
# ----------------------------------------------------------------------
class TestContextCacheHygiene:
    def test_clear_and_size_introspection(
        self, tmp_path, monkeypatch, fresh_context_cache
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ctx"))
        assert context_cache_size() == 0
        get_context(scale=0.05, seed=5, min_samples=5, cities=("wichita",))
        assert context_cache_size() == 1
        shared = shared_result_cache(tmp_path / "ctx")
        assert shared.store is not None
        assert shared.store.root == tmp_path / "ctx"
        assert (tmp_path / "ctx" / "manifest.json").exists()

        clear_context_cache()
        assert context_cache_size() == 0
        assert len(shared) == 0  # memory tier emptied
        # Disk tier survives a memory-only clear ...
        assert (tmp_path / "ctx" / "manifest.json").exists()
        assert len(DiskShardStore(tmp_path / "ctx")) > 0
        # ... and a second context build replays nothing.
        context = get_context(
            scale=0.05, seed=5, min_samples=5, cities=("wichita",)
        )
        assert len(context.dataset) > 0

    def test_shared_cache_rebuilds_when_env_changes(
        self, tmp_path, monkeypatch, fresh_context_cache
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        memory_only = shared_result_cache(RunSettings.from_env().cache_dir)
        assert memory_only.store is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        disk_backed = shared_result_cache(RunSettings.from_env().cache_dir)
        assert disk_backed is not memory_only
        assert disk_backed.store is not None

    def test_no_cache_context_skips_all_tiers(
        self, monkeypatch, fresh_context_cache
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        context = get_context(
            scale=0.05, seed=5, min_samples=5, cities=("wichita",),
            use_cache=False,
        )
        assert len(context.dataset) > 0
        assert len(shared_result_cache()) == 0
