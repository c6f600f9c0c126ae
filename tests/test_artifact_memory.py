"""The campaign's in-process artifact tier: content-keyed, kept for the
process lifetime, bounded, and invalidated by re-registration — and the
spec kernel the oracle predicts with, which lives and dies with its
artifact."""

import copy
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.netdebug import campaign, oracle
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
from repro.target.batch import BatchProgram
from repro.target.compiler import CompiledProgram

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


# ---------------------------------------------------------------------------
# The spec kernel the oracle predicts with lives on the artifact
# ---------------------------------------------------------------------------

def _spec_compiles(monkeypatch) -> list:
    """Record every kernel built with ``honor_reject`` (spec kernels
    among them)."""
    calls: list = []
    real = BatchProgram.__init__

    def recording(self, program, limits, model):
        if model.honor_reject:
            calls.append(program.name)
        real(self, program, limits, model)

    monkeypatch.setattr(BatchProgram, "__init__", recording)
    return calls


def _specs_used(monkeypatch) -> list:
    """Record ``(program, spec)`` for the oracle of every shard."""
    used: list = []
    real = oracle.ReferenceOracle.expect_all

    def recording(self, *args, **kwargs):
        used.append((self.program, self.spec))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(oracle.ReferenceOracle, "expect_all", recording)
    return used


def test_second_campaign_compiles_no_spec_program(monkeypatch):
    calls = _spec_compiles(monkeypatch)
    matrix = baseline_matrix()
    first = run_campaign(matrix, name="spec")
    compiled_first = len(calls)
    second = run_campaign(matrix, name="spec")

    # At least one spec kernel per artifact (2 programs x 3 targets)
    # the first time, besides the targets' own compiles; none after.
    assert compiled_first >= 6
    assert len(calls) == compiled_first
    assert first.to_json() == second.to_json()


def test_every_shard_over_an_artifact_shares_its_kernel(monkeypatch):
    used = _specs_used(monkeypatch)
    matrix = baseline_matrix()
    run_campaign(matrix, name="spec")
    run_campaign(matrix, name="spec")
    by_artifact: dict = {}
    for program, spec in used:
        assert spec.program is program
        by_artifact.setdefault(id(program), set()).add(id(spec))
    assert len(by_artifact) == 6
    assert all(len(specs) == 1 for specs in by_artifact.values())


def test_factory_over_another_program_object_compiles_its_own(
    monkeypatch,
):
    """An oracle factory may build its oracle over a copy of the
    program: that oracle compiles its own spec artifact and predicts
    exactly what the shared one does."""
    used = _specs_used(monkeypatch)
    matrix = baseline_matrix()
    shared = run_campaign(matrix, name="copy")
    artifact_specs = {id(spec) for _, spec in used}
    del used[:]

    def copying(program, num_ports=None):
        return oracle.StatelessOracle(copy.deepcopy(program), num_ports)

    copied = run_campaign(matrix, name="copy", oracle_factory=copying)
    assert copied.to_json() == shared.to_json()
    assert len(used) == len(matrix.expand())
    for program, spec in used:
        assert spec.program is program
        assert id(spec) not in artifact_specs


def test_reregistered_factory_rebuilds_the_spec_kernel(monkeypatch):
    used = _specs_used(monkeypatch)
    monkeypatch.setitem(PROGRAMS, "memo_prog", PROGRAMS["strict_parser"])
    matrix = ScenarioMatrix(
        programs=["memo_prog"], targets=["reference"], count=4,
    )
    run_campaign(matrix, name="reg")
    run_campaign(matrix, name="reg")
    before = {id(spec) for _, spec in used}
    assert len(before) == 1

    monkeypatch.setitem(PROGRAMS, "memo_prog", PROGRAMS["reflector"])
    del used[:]
    run_campaign(matrix, name="reg")
    (program, spec), = used
    assert id(spec) not in before
    assert spec.program is program
    assert spec.program.name == "reflector"


def test_reregistered_provisioner_rebuilds_the_spec_kernel(monkeypatch):
    used = _specs_used(monkeypatch)
    monkeypatch.setitem(PROVISIONERS, "memo_gate", PROVISIONERS["acl_gate"])
    matrix = ScenarioMatrix(
        programs=["acl_firewall"], targets=["reference"], count=4,
        setup="memo_gate",
    )
    run_campaign(matrix, name="reg")
    (_, gated), = used

    monkeypatch.setitem(PROVISIONERS, "memo_gate", lambda device: None)
    del used[:]
    run_campaign(matrix, name="reg")
    (program, spec), = used
    assert spec is not gated
    assert spec.program is program
    assert gated.program.all_tables()["acl"].entries
    assert not spec.program.all_tables()["acl"].entries


_FRESH_PREDICTIONS = """
import json
from repro.netdebug import campaign, oracle
from repro.netdebug.campaign import ScenarioMatrix, run_campaign

seen = []
real = oracle.ReferenceOracle.expect_all

def recording(self, *args, **kwargs):
    got = real(self, *args, **kwargs)
    seen.append(
        [[e.forbid, (e.wire or b"").hex(), e.egress_port] for e in got]
    )
    return got

oracle.ReferenceOracle.expect_all = recording
run_campaign(ScenarioMatrix(
    programs=["acl_firewall"], targets=["reference"],
    workloads=["udp", "malformed"], count=12, {setup}
), name="leak")
print(json.dumps(seen))
"""


def _predictions(monkeypatch, matrix) -> list:
    seen: list = []
    real = oracle.ReferenceOracle.expect_all

    def recording(self, *args, **kwargs):
        got = real(self, *args, **kwargs)
        seen.append(
            [[e.forbid, (e.wire or b"").hex(), e.egress_port] for e in got]
        )
        return got

    monkeypatch.setattr(oracle.ReferenceOracle, "expect_all", recording)
    run_campaign(matrix, name="leak")
    monkeypatch.setattr(oracle.ReferenceOracle, "expect_all", real)
    return seen


def _fresh_process_predictions(setup: str) -> list:
    script = _FRESH_PREDICTIONS.replace("{setup}", f"setup={setup!r}")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(out.stdout)


def test_no_table_state_leaks_between_setups(monkeypatch):
    def matrix(setup):
        return ScenarioMatrix(
            programs=["acl_firewall"], targets=["reference"],
            workloads=["udp", "malformed"], count=12, setup=setup,
        )

    gated = _predictions(monkeypatch, matrix("acl_gate"))
    bare = _predictions(monkeypatch, matrix(""))
    assert bare == _fresh_process_predictions("")
    assert gated == _fresh_process_predictions("acl_gate")
    assert gated != bare  # the gate's entries change what is predicted


def test_live_spec_kernels_never_exceed_the_tier_capacity(monkeypatch):
    tier = _ArtifactLRU(capacity=2)
    monkeypatch.setattr(campaign, "_ARTIFACTS", tier)
    gc.collect()
    baseline = _live_kernels()
    samples = []
    real = oracle.ReferenceOracle.expect_all

    def sampling(self, *args, **kwargs):
        got = real(self, *args, **kwargs)
        gc.collect()
        samples.append(_live_kernels() - baseline)
        return got

    monkeypatch.setattr(oracle.ReferenceOracle, "expect_all", sampling)
    matrix = baseline_matrix()  # 6 artifacts through a 2-entry tier
    run_campaign(matrix, name="small-tier")
    run_campaign(matrix, name="small-tier")
    assert len(samples) == 2 * len(matrix.expand())
    assert max(samples) == 2


def _live_kernels() -> int:
    return sum(
        isinstance(o, CompiledProgram) and o.target_name == "spec"
        for o in gc.get_objects()
    )
