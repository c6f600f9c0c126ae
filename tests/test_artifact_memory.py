"""The campaign's in-process artifact tier: content-keyed, kept for the
process lifetime, bounded, and invalidated by re-registration."""

import pytest

from repro.netdebug import campaign
from repro.netdebug.campaign import (
    PROVISIONERS,
    ScenarioMatrix,
    _ArtifactLRU,
    _clear_artifacts,
    _shard_device,
    run_campaign,
)
from repro.netdebug.diffing import baseline_matrix
from repro.p4.stdlib import PROGRAMS

COUNTERS = ("hits", "misses", "stores", "memory_hits")


@pytest.fixture(autouse=True)
def _empty_tier():
    """Each test starts, and leaves, with an empty in-process tier."""
    _clear_artifacts()
    yield
    _clear_artifacts()


def _counters(report) -> dict:
    cache = report.meta["compile_cache"]
    return {name: cache.get(name, 0) for name in COUNTERS}


def _calls_recorder(calls: list):
    def provision(device):
        calls.append(device.name)

    return provision


def test_second_campaign_resolves_every_cell_from_memory():
    matrix = baseline_matrix()
    cells = len(matrix.expand())
    first = run_campaign(matrix, name="memory")
    second = run_campaign(matrix, name="memory")

    assert _counters(first)["stores"] > 0
    assert _counters(second) == {
        "hits": 0, "misses": 0, "stores": 0, "memory_hits": cells,
    }
    assert first.to_json() == second.to_json()


def test_disabled_disk_cache_still_memory_hits_across_campaigns(
    monkeypatch,
):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
    matrix = baseline_matrix()
    first = run_campaign(matrix, name="nodisk")
    second = run_campaign(matrix, name="nodisk")

    assert _counters(second) == {
        "hits": 0, "misses": 0, "stores": 0,
        "memory_hits": len(matrix.expand()),
    }
    assert first.to_json() == second.to_json()


def test_reregistered_provisioner_forces_a_fresh_compile(monkeypatch):
    first_calls: list = []
    second_calls: list = []
    monkeypatch.setitem(
        PROVISIONERS, "memo_gate", _calls_recorder(first_calls)
    )
    matrix = ScenarioMatrix(
        programs=["strict_parser"],
        targets=["reference", "sdnet"],
        workloads=["udp"],
        count=4,
        setup="memo_gate",
    )
    run_campaign(matrix, name="reg")
    run_campaign(matrix, name="reg")
    assert first_calls == ["reference-strict_parser", "sdnet-strict_parser"]

    monkeypatch.setitem(
        PROVISIONERS, "memo_gate", _calls_recorder(second_calls)
    )
    report = run_campaign(matrix, name="reg")
    # The new provisioner ran on a fresh compile (the disk entry the
    # old one stored is overwritten, not loaded); the old one did not
    # run again.
    assert second_calls == ["reference-strict_parser", "sdnet-strict_parser"]
    assert len(first_calls) == 2
    counters = _counters(report)
    assert counters["memory_hits"] == 0 and counters["hits"] == 0
    assert counters["stores"] == 2


def test_reregistered_program_factory_forces_a_fresh_compile(monkeypatch):
    monkeypatch.setitem(PROGRAMS, "memo_prog", PROGRAMS["strict_parser"])
    matrix = ScenarioMatrix(
        programs=["memo_prog"], targets=["reference"], count=4,
    )
    before = run_campaign(matrix, name="reg")
    assert before.results[0].report.program == "strict_parser"

    monkeypatch.setitem(PROGRAMS, "memo_prog", PROGRAMS["reflector"])
    after = run_campaign(matrix, name="reg")
    assert after.results[0].report.program == "reflector"
    assert _counters(after)["memory_hits"] == 0


def test_two_setups_of_one_program_never_share_an_artifact():
    bare = _shard_device("acl_firewall", "reference", "")
    gated = _shard_device("acl_firewall", "reference", "acl_gate")
    assert bare.compiled is not gated.compiled
    assert not bare.program.all_tables()["acl"].entries
    assert gated.program.all_tables()["acl"].entries
    assert len(campaign._ARTIFACTS) == 2

    # And each setup keeps resolving to its own artifact.
    assert _shard_device(
        "acl_firewall", "reference", ""
    ).compiled is bare.compiled
    assert _shard_device(
        "acl_firewall", "reference", "acl_gate"
    ).compiled is gated.compiled


def test_lru_evicts_the_least_recently_used_entry():
    lru = _ArtifactLRU(capacity=2)
    lru.put("a", "artifact-a")
    lru.put("b", "artifact-b")
    assert lru.get("a") == "artifact-a"  # a is now the most recent
    lru.put("c", "artifact-c")
    assert len(lru) == 2
    assert lru.get("b") is None
    assert lru.get("a") == "artifact-a" and lru.get("c") == "artifact-c"


def test_campaign_tier_never_exceeds_its_capacity(monkeypatch):
    tier = _ArtifactLRU(capacity=2)
    sizes = []
    put = tier.put

    def recording_put(key, compiled):
        put(key, compiled)
        sizes.append(len(tier))

    monkeypatch.setattr(tier, "put", recording_put)
    monkeypatch.setattr(campaign, "_ARTIFACTS", tier)
    matrix = baseline_matrix()  # 2 programs x 3 targets = 6 artifacts
    first = run_campaign(matrix, name="small-tier")
    second = run_campaign(matrix, name="small-tier")

    assert len(sizes) > 2 and max(sizes) == 2
    assert first.to_json() == second.to_json()
