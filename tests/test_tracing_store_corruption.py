"""Self-healing TraceStore: corrupt entries invalidate and re-trace, never raise.

Every damage shape a shared cache directory can exhibit — truncated
binary entries (length mismatch), flipped payload bytes (checksum
mismatch), foreign format versions, stale payload schemas, JSON text at
the binary path, outright garbage — must be detected on load, logged,
deleted, and reported as a miss so the caller recomputes.  Files that
are not ``.rpb`` entries (such as the ``.json`` entries of the
pre-binary store) are never read at all.
"""

import json
import shutil
import struct
import time
from pathlib import Path

import pytest

from repro.probes.suite import probe_machine
from repro.tracing import binfmt
from repro.tracing.metasim import DEFAULT_SAMPLE_SIZE, trace_application
from repro.tracing.store import TraceStore
from repro.util.faults import FaultPlan

#: A store directory (one AVUS-standard@64 trace, the base system's
#: probes) written before ``SCHEMA_VERSION`` moved into ``binfmt``.
FIXTURE_STORE = Path(__file__).parent / "fixtures" / "binary_store"


@pytest.fixture()
def stored(tmp_path, base_machine, avus):
    """A store holding one trace + the base machine's probes."""
    store = TraceStore(tmp_path)
    trace = trace_application(avus, 64, base_machine, use_cache=False, store=store)
    probe_machine(base_machine, use_cache=False, store=store)
    store.flush()  # the tests damage files directly, so writes must land
    return store, trace


def _trace_file(store):
    (path,) = list(store.traces_dir.iterdir())
    return path


def _load(store, trace):
    return store.load_trace(
        trace.application, trace.cpus, trace.base_machine, trace.sample_size, False
    )


# ---------------------------------------------------------------------------
# binary damage shapes
# ---------------------------------------------------------------------------


def test_entries_are_binary(stored):
    store, _ = stored
    path = _trace_file(store)
    assert path.suffix == ".rpb"
    assert path.read_bytes()[:4] == binfmt.MAGIC


def test_truncated_entry_invalidates_and_deletes(stored):
    store, trace = stored
    path = _trace_file(store)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert _load(store, trace) is None
    assert not path.exists()
    assert store.invalidated == 1


def test_flipped_payload_byte_fails_checksum_and_invalidates(stored):
    store, trace = stored
    path = _trace_file(store)
    data = path.read_bytes()
    i = (len(data) + 36) // 2  # inside the checksummed body, past the prelude
    path.write_bytes(data[:i] + bytes((data[i] ^ 0x01,)) + data[i + 1 :])
    assert _load(store, trace) is None
    assert not path.exists()
    assert store.invalidated == 1


def test_foreign_format_version_invalidates(stored):
    store, trace = stored
    path = _trace_file(store)
    data = bytearray(path.read_bytes())
    # The format version lives in the prelude, outside the checksummed
    # region: a future build's entry is rejected structurally, not as rot.
    struct.pack_into("<H", data, 4, binfmt.FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))
    assert _load(store, trace) is None
    assert store.invalidated == 1


def test_bare_json_at_binary_path_invalidates(stored, base_machine, avus):
    # A JSON document dropped at the binary path: bad magic.
    store, trace = stored
    path = _trace_file(store)
    path.write_bytes(json.dumps({"schema_version": 2, "kind": "trace"}).encode())
    assert _load(store, trace) is None
    assert store.invalidated == 1


def test_garbage_entry_invalidates(stored):
    store, trace = stored
    path = _trace_file(store)
    path.write_bytes(b"\x00" * 512)
    assert _load(store, trace) is None
    assert store.invalidated == 1


def test_corrupt_probe_entry_invalidates(stored, base_machine):
    store, _ = stored
    (path,) = list(store.probes_dir.iterdir())
    path.write_bytes(path.read_bytes()[:40])
    assert store.load_probes(base_machine) is None
    assert not path.exists()


def test_stale_payload_schema_version_invalidates(stored, monkeypatch):
    # An entry whose checksum is intact but whose header carries another
    # payload schema: an old or future build's artifact.
    store, trace = stored
    path = _trace_file(store)
    monkeypatch.setattr(binfmt, "SCHEMA_VERSION", binfmt.SCHEMA_VERSION - 1)
    path.write_bytes(binfmt.trace_to_bytes(trace))
    monkeypatch.undo()
    assert _load(store, trace) is None
    assert not path.exists()
    assert store.invalidated == 1


# ---------------------------------------------------------------------------
# files that are not entries
# ---------------------------------------------------------------------------


def test_stray_json_entry_is_ignored_and_retraced(stored, base_machine, avus):
    """A ``<digest>.json`` file (the pre-binary store's entry) is never read."""
    store, trace = stored
    path = _trace_file(store)
    stray = path.with_suffix(".json")
    stray.write_text(json.dumps({"kind": "store-entry", "payload": "{}"}))
    path.unlink()
    assert not store.has_trace(
        trace.application, trace.cpus, trace.base_machine, trace.sample_size
    )
    assert _load(store, trace) is None
    retraced = trace_application(avus, 64, base_machine, use_cache=False, store=store)
    assert retraced == trace
    store.flush()
    assert _load(store, trace) == trace
    assert store.invalidated == 0
    assert stray.exists()  # not ours to delete
    assert store.stats()["traces"] == {"binary": 1, "bytes": path.stat().st_size}


def test_store_written_before_schema_move_loads_clean(tmp_path, base_machine, avus):
    """Entries from before ``SCHEMA_VERSION`` moved keep their keys and load."""
    shutil.copytree(FIXTURE_STORE, tmp_path / "store")
    store = TraceStore(tmp_path / "store")
    loaded = store.load_trace("AVUS-standard", 64, base_machine.name, DEFAULT_SAMPLE_SIZE)
    assert loaded == trace_application(avus, 64, base_machine, use_cache=False)
    probes = store.load_probes(base_machine)
    assert probes is not None
    fresh = probe_machine(base_machine, use_cache=False)
    assert binfmt.probes_to_bytes(probes) == binfmt.probes_to_bytes(fresh)
    assert store.invalidated == 0


# ---------------------------------------------------------------------------
# heal-by-retrace: the study-level guarantee
# ---------------------------------------------------------------------------


def test_invalidation_falls_through_to_retrace(stored, base_machine, avus):
    store, trace = stored
    _trace_file(store).write_bytes(b"garbage" * 64)
    retraced = trace_application(avus, 64, base_machine, use_cache=False, store=store)
    assert retraced == trace  # recomputed, not loaded — and byte-equal
    assert store.invalidated == 1
    # the healed entry is valid again
    assert _load(store, trace) == trace


def test_fault_injected_store_corruption_heals(tmp_path, base_machine, avus):
    """A FaultPlan-corrupted save is caught by the next load and re-traced."""
    plan = FaultPlan(seed=11, corrupt_rate=1.0)
    dirty = TraceStore(tmp_path, faults=plan)
    trace = trace_application(avus, 64, base_machine, use_cache=False, store=dirty)
    dirty.flush()  # a second instance has no view of this one's write queue

    clean = TraceStore(tmp_path)
    assert _load(clean, trace) is None  # corrupted on disk -> invalidated
    assert clean.invalidated == 1
    healed = trace_application(avus, 64, base_machine, use_cache=False, store=clean)
    assert healed == trace
    assert _load(clean, trace) == trace


def test_healing_logs_a_warning(stored, caplog):
    store, trace = stored
    _trace_file(store).write_bytes(b"garbage" * 64)
    with caplog.at_level("WARNING", logger="repro.tracing.store"):
        assert _load(store, trace) is None
    assert any("invalidating corrupt trace entry" in m for m in caplog.messages)


# ---------------------------------------------------------------------------
# write-behind: deferred writes are invisible to readers
# ---------------------------------------------------------------------------


def test_read_after_write_synchronises(tmp_path, base_machine, avus):
    """A load issued right after a save sees the entry, queue or not."""
    store = TraceStore(tmp_path)
    trace = trace_application(avus, 64, base_machine, use_cache=False)
    store.save_trace(trace)
    # no explicit flush: load_trace must complete the in-flight write itself
    assert _load(store, trace) == trace
    assert store.has_trace(
        trace.application, trace.cpus, trace.base_machine, trace.sample_size
    )
    assert _trace_file(store).suffix == ".rpb"


def test_flush_drains_the_writer_queue(tmp_path, base_machine, avus):
    store = TraceStore(tmp_path)
    trace = trace_application(avus, 64, base_machine, use_cache=False)
    store.save_trace(trace)
    probe_machine(base_machine, use_cache=False, store=store)
    store.flush()
    assert not store._pending
    assert len(list(store.traces_dir.iterdir())) == 1
    assert len(list(store.probes_dir.iterdir())) == 1


def test_rapid_resaves_of_one_path_never_wedge_flush(tmp_path, base_machine, avus):
    """Many saves of one identity racing the writer must drain cleanly.

    Regression: a drain round whose pending bytes a *previous* round
    already wrote (and cleared) used to KeyError the writer thread
    mid-drain, deadlocking every later flush().
    """
    import threading

    store = TraceStore(tmp_path)
    trace = trace_application(avus, 64, base_machine, use_cache=False)
    for _ in range(500):
        store.save_trace(trace)
    flusher = threading.Thread(target=store.flush, daemon=True)
    flusher.start()
    flusher.join(timeout=30.0)
    assert not flusher.is_alive(), "flush() wedged: writer thread died mid-drain"
    assert not store._pending
    assert _load(store, trace) == trace


def test_writer_thread_exits_when_idle(tmp_path, base_machine, avus):
    """Short-lived stores (one per worker chunk) must not leak threads."""
    store = TraceStore(tmp_path)
    store.WRITER_IDLE_SECONDS = 0.05
    trace = trace_application(avus, 64, base_machine, use_cache=False)
    store.save_trace(trace)
    store.flush()
    deadline = time.monotonic() + 5.0
    while store._writer is not None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert store._writer is None
    # and a later save restarts it transparently
    store.save_trace(trace)
    store.flush()
    assert _load(store, trace) == trace
