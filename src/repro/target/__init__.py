"""Simulated hardware targets and their execution core.

The package splits into the performance-first execution core —
:mod:`~repro.target.compiler` (the artifact, built with its one
kernel), :mod:`~repro.target.batch` (that kernel: the one execution
driver and the one cycle model), :mod:`~repro.target.fastpath` (the
one source generator it compiles with: parser, deparser, one function
per action and per control stage), :mod:`~repro.target.pipeline` (the
stage names, tap
snapshots and run records the layers share) and
:mod:`~repro.target.device` (ports, stats, runtime state, taps and the
management interface) — and
the three concrete targets: the spec-faithful reference
(:mod:`~repro.target.reference`), the SDNet-like backend whose
datapath silently omits the parser ``reject`` state
(:mod:`~repro.target.sdnet`), reproducing the paper's §4 case study,
and the Tofino-like backend that quantizes TCAM patterns and truncates
the deparser (:mod:`~repro.target.tofino`) — a *differently* deviant
third corner for 3-way differential sweeps.
"""

from .artifact_cache import (
    ArtifactCache,
    CACHE_VERSION,
    get_artifact_cache,
)
from .batch import BatchProgram
from .compiler import CompiledProgram, Diagnostic, TargetCompiler
from .device import FLOOD_PORT, DeviceStats, NetworkDevice, Port
from .faults import Fault, FaultInjector, FaultKind
from .limits import REFERENCE_LIMITS, SDNET_LIMITS, TOFINO_LIMITS, ArchLimits
from .pipeline import PacketSnapshot, TAP_INPUT, TAP_OUTPUT, TargetRun
from .reference import ReferenceCompiler, make_reference_device
from .resources import (
    DeviceCapacity,
    ResourceUsage,
    SUME_CAPACITY,
    estimate_parser,
    estimate_program,
    estimate_stateful,
)
from .sdnet import REJECT_NOT_IMPLEMENTED, SDNetCompiler, make_sdnet_device
from .tofino import (
    DEPARSE_FIELD_BUDGET,
    DEPARSE_FIELD_BUDGET_EXCEEDED,
    TCAM_QUANTIZED,
    TofinoCompiler,
    make_tofino_device,
)

__all__ = [
    # device
    "NetworkDevice",
    "Port",
    "DeviceStats",
    "FLOOD_PORT",
    # pipeline
    "PacketSnapshot",
    "TargetRun",
    "TAP_INPUT",
    "TAP_OUTPUT",
    # compiler
    "TargetCompiler",
    "CompiledProgram",
    "Diagnostic",
    # batch kernel and artifact cache
    "BatchProgram",
    "ArtifactCache",
    "CACHE_VERSION",
    "get_artifact_cache",
    # targets
    "ReferenceCompiler",
    "make_reference_device",
    "SDNetCompiler",
    "make_sdnet_device",
    "REJECT_NOT_IMPLEMENTED",
    "TofinoCompiler",
    "make_tofino_device",
    "TCAM_QUANTIZED",
    "DEPARSE_FIELD_BUDGET",
    "DEPARSE_FIELD_BUDGET_EXCEEDED",
    # limits and resources
    "ArchLimits",
    "REFERENCE_LIMITS",
    "SDNET_LIMITS",
    "TOFINO_LIMITS",
    "ResourceUsage",
    "DeviceCapacity",
    "SUME_CAPACITY",
    "estimate_parser",
    "estimate_program",
    "estimate_stateful",
    # faults
    "Fault",
    "FaultKind",
    "FaultInjector",
]
