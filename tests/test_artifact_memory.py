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
from repro.netdebug.generator import StreamSpec
from repro.netdebug.session import ValidationSession, run_session
from repro.p4.stdlib import PROGRAMS
from repro.sim.traffic import build_workload, default_flow
from repro.target.batch import BatchProgram
from repro.target.compiler import CompiledProgram
from repro.target.limits import SPEC_MODEL

COUNTERS = ("hits", "misses", "stores", "memory_hits")

#: Valid and malformed frames: the reject-leak and deparse deviations
#: both show on them.
_FRAMES = build_workload("malformed", default_flow(), 16, seed=3).frames


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
    """Record every kernel built under the spec model."""
    calls: list = []
    real = BatchProgram.__init__

    def recording(self, program, limits, model):
        if model == SPEC_MODEL:
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

    # The first time, one spec-model kernel per artifact (2 programs x
    # 3 targets): a reference artifact's own, which its oracle predicts
    # with, and one spec kernel kept on each deviant artifact. None
    # after.
    assert compiled_first == 6
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


@pytest.mark.parametrize("target", ["reference", "sdnet", "tofino"])
def test_oracle_predicts_with_a_spec_model_kernel(monkeypatch, target):
    """A reference artifact's oracle predicts with the artifact's own
    kernel; a deviant artifact's with a spec-model kernel of its own,
    kept on the artifact."""
    device = _shard_device("acl_firewall", target, "acl_gate")
    compiled = device.compiled
    built = oracle.build_oracle(oracle.StatelessOracle, device)
    if target == "reference":
        assert built.spec is compiled
    else:
        assert built.spec is compiled.spec
        assert built.spec.kernel is not compiled.kernel
    assert built.spec.model == SPEC_MODEL

    kernels = []
    real = BatchProgram.run_block

    def recording(self, *args, **kwargs):
        kernels.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BatchProgram, "run_block", recording)
    built.expect_all(_FRAMES)
    assert kernels and set(kernels) == {built.spec.kernel}


def test_factory_over_another_program_object_compiles_its_own(
    monkeypatch,
):
    """A session's oracle factory may build its oracle over a copy of
    the device's program: that oracle compiles its own spec artifact
    and predicts exactly what the shared one does."""
    used = _specs_used(monkeypatch)

    def copying(program, num_ports=None):
        return oracle.StatelessOracle(copy.deepcopy(program), num_ports)

    for target in ("reference", "sdnet", "tofino"):
        reports = []
        for factory in (oracle.StatelessOracle, copying):
            device = _shard_device("strict_parser", target, "")
            session = ValidationSession(
                name="copy",
                streams=[StreamSpec(stream_id=1, packets=list(_FRAMES))],
                oracle_factory=factory,
            )
            reports.append(run_session(device, session).to_dict())
        (shared_program, shared), (copied_program, copied) = used[-2:]
        assert reports[0] == reports[1]
        assert copied.program is copied_program
        assert copied_program is not shared_program
        assert copied is not shared


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
