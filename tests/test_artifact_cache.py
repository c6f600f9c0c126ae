"""The persistent compiled-artifact cache and its cluster version guard."""

import dataclasses
import io
import pickle

import pytest

from repro.netdebug.campaign import _clear_artifacts, run_campaign
from repro.netdebug.cluster import _service_execute
from repro.netdebug.diffing import baseline_matrix
from repro.netdebug.transport import (
    require_cache_version,
    stamp_cache_version,
)
from repro.p4.stdlib import PROGRAMS
from repro.packet.fields import HeaderSpec
from repro.target.artifact_cache import (
    CACHE_VERSION,
    ArtifactCache,
    get_artifact_cache,
    stats_delta,
    stats_snapshot,
)
from repro.target.reference import ReferenceCompiler, make_reference_device
from repro.target.sdnet import SDNetCompiler

from tests.test_target_fastpath_differential import run_one, workload


def _compile(factory=None, compiler=None):
    compiler = compiler or ReferenceCompiler()
    program = (factory or PROGRAMS["acl_firewall"])()
    return program, compiler, compiler.compile(program)


# ---------------------------------------------------------------------------
# Keying
# ---------------------------------------------------------------------------

def test_key_is_stable_and_distinguishes_inputs(tmp_path):
    cache = ArtifactCache(tmp_path)
    program, compiler, _ = _compile()
    key = cache.key_for(program, compiler)
    assert key == cache.key_for(PROGRAMS["acl_firewall"](), compiler)
    # Different program, different target, different extra tag: all
    # change the key (a hit must never alias another artifact).
    assert key != cache.key_for(PROGRAMS["l2_switch"](), compiler)
    assert key != cache.key_for(program, SDNetCompiler())
    assert key != cache.key_for(program, compiler, extra="acl_gate")


def test_key_changes_with_installed_entries(tmp_path):
    """Provisioned table entries live inside the IR the key covers."""
    cache = ArtifactCache(tmp_path)
    device = make_reference_device("keyed")
    device.load(PROGRAMS["l2_switch"]())
    compiler = ReferenceCompiler()
    before = cache.key_for(device.program, compiler)
    device.control_plane.table_add(
        "dmac", "forward", [0x020000000002], [1]
    )
    assert cache.key_for(device.program, compiler) != before


# ---------------------------------------------------------------------------
# Store / load round trip
# ---------------------------------------------------------------------------

def test_store_load_round_trip_is_behavioral(tmp_path):
    """A loaded artifact (closures rebuilt) runs packets identically."""
    cache = ArtifactCache(tmp_path)
    program, compiler, compiled = _compile()
    key = cache.key_for(program, compiler)
    before = stats_snapshot()
    cache.store(key, compiled)
    loaded = cache.load(key, compiler)
    delta = stats_delta(before)
    assert delta["stores"] == 1 and delta["hits"] == 1
    assert loaded is not None
    assert loaded.fast is not None

    original = make_reference_device("orig")
    original.install(compiled)
    restored = make_reference_device("orig")
    restored.install(loaded)
    for wire in workload():
        assert run_one(original, wire) == run_one(restored, wire)


def test_missing_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    before = stats_snapshot()
    assert cache.load("0" * 64, ReferenceCompiler()) is None
    assert stats_delta(before)["misses"] == 1


@pytest.mark.parametrize(
    "corruption",
    ["truncated", "garbage", "version", "key", "target"],
)
def test_corrupt_or_stale_entries_miss_and_unlink(tmp_path, corruption):
    cache = ArtifactCache(tmp_path)
    program, compiler, compiled = _compile()
    key = cache.key_for(program, compiler)
    cache.store(key, compiled)
    path = cache._path(key)

    if corruption == "truncated":
        path.write_bytes(path.read_bytes()[:20])
    elif corruption == "garbage":
        path.write_bytes(b"not a pickle at all")
    elif corruption == "version":
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
    elif corruption == "key":
        payload = pickle.loads(path.read_bytes())
        payload["key"] = "f" * 64
        path.write_bytes(pickle.dumps(payload))
    elif corruption == "target":
        # Same bytes filed under a different target's compiler.
        compiler = SDNetCompiler()

    before = stats_snapshot()
    assert cache.load(key, compiler) is None
    assert stats_delta(before) == {
        "hits": 0, "misses": 1, "stores": 0, "memory_hits": 0,
    }
    assert not path.exists(), "corrupt entry must be deleted"


def _version_1_header_spec(name, fields):
    """A HeaderSpec as version-1 artifacts unpickle: the declared
    fields and the two lookup dicts, none of the layout derived since."""
    spec = object.__new__(HeaderSpec)
    offsets, offset = {}, 0
    for f in fields:
        offsets[f.name] = offset
        offset += f.width
    spec.__dict__.update(
        name=name,
        fields=fields,
        _offsets=offsets,
        _by_name={f.name: f for f in fields},
    )
    return spec


def test_previous_version_artifact_is_a_miss(tmp_path):
    """An artifact pickled before HeaderSpec derived its layout would
    load specs without it; the version stamp turns it into a miss (and
    deletes it) instead of an AttributeError at first use."""
    cache = ArtifactCache(tmp_path)
    program, compiler, compiled = _compile()
    key = cache.key_for(program, compiler)

    class Version1Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, HeaderSpec):
                return _version_1_header_spec, (obj.name, obj.fields)
            return NotImplemented

    buffer = io.BytesIO()
    Version1Pickler(buffer).dump({
        "version": 1,
        "key": key,
        "artifact": dataclasses.replace(compiled, fast=None, batch=None),
    })
    path = cache._path(key)
    path.write_bytes(buffer.getvalue())
    stale = pickle.loads(path.read_bytes())["artifact"]
    with pytest.raises(AttributeError):
        stale.program.env.header("ethernet").pack({})

    assert CACHE_VERSION > 1
    before = stats_snapshot()
    assert cache.load(key, compiler) is None
    assert stats_delta(before)["misses"] == 1
    assert not path.exists()


def test_store_failure_is_silent(tmp_path):
    """An unusable cache directory must never fail the run. (A plain
    file where the directory should be defeats even root, which a
    read-only mode bit does not.)"""
    blocker = tmp_path / "ro"
    blocker.write_text("not a directory")
    cache = ArtifactCache(blocker)
    program, compiler, compiled = _compile()
    before = stats_snapshot()
    cache.store(cache.key_for(program, compiler), compiled)
    assert stats_delta(before)["stores"] == 0


# ---------------------------------------------------------------------------
# Environment resolution
# ---------------------------------------------------------------------------

def test_env_var_selects_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "here"))
    cache = get_artifact_cache()
    assert cache is not None
    assert cache.directory == tmp_path / "here"


@pytest.mark.parametrize("word", ["off", "0", "none", "disabled", " OFF "])
def test_env_var_disables_cache(monkeypatch, word):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", word)
    assert get_artifact_cache() is None


def test_default_directory_under_home(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = get_artifact_cache()
    assert cache is not None
    assert str(cache.directory).startswith(str(tmp_path))


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------

def test_warm_campaign_hits_cache_and_keeps_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "warm"))
    matrix = baseline_matrix()
    # Both runs start with an empty in-process tier, as a fresh process
    # would, so the warm run must resolve every artifact from disk.
    _clear_artifacts()
    cold = run_campaign(matrix, name="cache-check")
    _clear_artifacts()
    warm = run_campaign(matrix, name="cache-check")

    assert cold.meta["compile_cache"]["stores"] > 0
    assert warm.meta["compile_cache"]["hits"] > 0
    assert warm.meta["compile_cache"]["stores"] == 0
    # Counters are observability only — never part of the canonical
    # report bytes the golden baselines pin.
    assert cold.to_json() == warm.to_json()
    assert "compile_cache" not in cold.to_json()


def test_disabled_cache_still_runs(monkeypatch):
    """With the disk cache off, only the in-process tier moves."""
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
    report = run_campaign(baseline_matrix(), name="nocache")
    counters = report.meta["compile_cache"]
    assert counters["hits"] == 0
    assert counters["misses"] == 0
    assert counters["stores"] == 0
    assert counters["memory_hits"] > 0


# ---------------------------------------------------------------------------
# Cluster version guard
# ---------------------------------------------------------------------------

def test_stamp_and_require_round_trip():
    message = stamp_cache_version({"type": "job"})
    assert message["cache_version"] == CACHE_VERSION
    require_cache_version(message)  # does not raise


def test_worker_rejects_version_skew():
    for bad in ({}, {"cache_version": CACHE_VERSION + 1}):
        message = {"type": "job", "id": 0, "job": {}, **bad}
        reply = _service_execute(message)
        assert reply["type"] == "error"
        assert "skewed" in reply["error"]


def test_worker_accepts_current_version():
    """A correctly stamped frame flows through to job decoding (the
    bogus job then fails, proving the guard was passed)."""
    reply = _service_execute(
        stamp_cache_version({"type": "job", "id": 0, "job": {}})
    )
    assert reply["type"] == "error"
    assert "skewed" not in reply["error"]
    assert "malformed JSON job" in reply["error"]
