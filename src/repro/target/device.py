"""The simulated network device: ports, pipeline, management interface.

A :class:`NetworkDevice` wires a :class:`~repro.target.pipeline.StagedPipeline`
behind external traffic ports, tracks per-port and device-wide
statistics, advances a clock by the pipeline's cycle model, and exposes
the *dedicated management interface* NetDebug relies on: loading
programs, the control plane, internal taps, direct mid-pipeline
injection (which never touches the traffic ports), fault injection, and
structured status reads.

Two traffic paths exist:

* :meth:`process` / :meth:`process_batch` — the external path: a frame
  arrives on a port, counters move, and forwarded output leaves on
  ports (with :data:`FLOOD_PORT` flooding all ports but the ingress).
* :meth:`inject` / :meth:`inject_batch` — NetDebug's internal path:
  test packets enter the pipeline directly at any tap and, by default,
  never emerge on the wire. Device statistics still account for them
  (the hardware did process the packet); port counters do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..controlplane import RuntimeAPI
from ..exceptions import TargetError
from ..p4.interpreter import RuntimeState, Verdict
from ..p4.program import P4Program
from .compiler import CompiledProgram, TargetCompiler
from .faults import FaultInjector
from .limits import ArchLimits
from .pipeline import StagedPipeline, TAP_INPUT, TargetRun

__all__ = [
    "CAMPAIGN_ENGINE",
    "ENGINES",
    "FLOOD_PORT",
    "Port",
    "DeviceStats",
    "NetworkDevice",
]

#: Egress value meaning "flood to every port except the ingress".
FLOOD_PORT = 0x1FF

#: Execution engines a device can run: spec-faithful tree-walking,
#: per-packet compiled closures, or the block-compiled batch kernel.
ENGINES = ("tree", "closure", "batch")

#: The engine campaign shards run on unless told otherwise: cells the
#: block kernel can serve run through it, the rest fall back to
#: per-packet closures (see ``repro.netdebug.session``). A device built
#: directly still defaults to ``closure``.
CAMPAIGN_ENGINE = "batch"


@dataclass
class Port:
    """One external traffic port with RX/TX accounting."""

    index: int
    rx_packets: int = 0
    rx_bytes: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0


@dataclass
class DeviceStats:
    """Device-wide packet accounting."""

    processed: int = 0
    forwarded: int = 0
    dropped: int = 0
    parser_rejected: int = 0
    invalid_egress: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "processed": self.processed,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "parser_rejected": self.parser_rejected,
            "invalid_egress": self.invalid_egress,
        }


class NetworkDevice:
    """A simulated programmable device driven by one target compiler."""

    def __init__(
        self,
        name: str,
        compiler: TargetCompiler,
        num_ports: int = 8,
        use_compiled: bool = True,
        engine: str | None = None,
    ):
        if engine is None:
            engine = "closure" if use_compiled else "tree"
        if engine not in ENGINES:
            raise TargetError(
                f"unknown execution engine {engine!r}; "
                f"choose one of {', '.join(ENGINES)}"
            )
        self.name = name
        self.compiler = compiler
        self.limits: ArchLimits = compiler.limits
        self.ports = [Port(index) for index in range(num_ports)]
        self.stats = DeviceStats()
        self.injector = FaultInjector()
        self.clock_cycles = 0
        self.engine = engine
        self._use_compiled = engine != "tree"
        self._compiled: CompiledProgram | None = None
        self._pipeline: StagedPipeline | None = None
        self._control: RuntimeAPI | None = None
        self._state: RuntimeState | None = None
        self._batch = None

    # ------------------------------------------------------------------
    # Program lifecycle
    # ------------------------------------------------------------------
    def load(self, program: P4Program) -> CompiledProgram:
        """Compile ``program`` for this target and install it."""
        return self.install(self.compiler.compile(program))

    def install(self, compiled: CompiledProgram) -> CompiledProgram:
        """Install an already-compiled artifact, skipping compilation.

        The artifact itself is stateless — fast-path closures read all
        mutable state (counters, registers, metadata) from per-run
        structures — so one :class:`CompiledProgram` can back many
        devices. This is the campaign worker path: each worker compiles
        a program once and stamps out a fresh device (fresh runtime
        state, stats, clock, fault set) per shard. Note the *program*
        object (and its installed table entries) is shared by every
        device installing the same artifact.
        """
        if compiled.target_name != self.limits.name:
            raise TargetError(
                f"artifact compiled for target {compiled.target_name!r} "
                f"cannot be installed on {self.limits.name!r} device "
                f"{self.name!r}"
            )
        program = compiled.program
        state = RuntimeState.for_program(program)
        self._compiled = compiled
        self._state = state
        self._control = RuntimeAPI(program, state)
        self._pipeline = StagedPipeline(
            compiled,
            self.limits,
            state=state,
            injector=self.injector,
            use_compiled=self._use_compiled,
        )
        if self.engine == "batch":
            from .batch import get_batch_program

            self._batch = get_batch_program(compiled, self.limits)
        else:
            self._batch = None
        return compiled

    def _require_pipeline(self) -> StagedPipeline:
        if self._pipeline is None:
            raise TargetError(
                f"device {self.name!r} has no program loaded"
            )
        return self._pipeline

    @property
    def compiled(self) -> CompiledProgram:
        if self._compiled is None:
            raise TargetError(
                f"device {self.name!r} has no program loaded"
            )
        return self._compiled

    @property
    def program(self) -> P4Program:
        return self.compiled.program

    @property
    def control_plane(self) -> RuntimeAPI:
        if self._control is None:
            raise TargetError(
                f"device {self.name!r} has no program loaded"
            )
        return self._control

    @property
    def pipeline(self) -> StagedPipeline:
        return self._require_pipeline()

    # ------------------------------------------------------------------
    # Management interface: taps and topology
    # ------------------------------------------------------------------
    def stage_names(self) -> list[str]:
        return self._require_pipeline().stage_names()

    def attach_tap(self, stage: str, callback) -> None:
        self._require_pipeline().attach_tap(stage, callback)

    def detach_tap(self, stage: str, callback) -> None:
        self._require_pipeline().detach_tap(stage, callback)

    # ------------------------------------------------------------------
    # External traffic path
    # ------------------------------------------------------------------
    def process(
        self,
        wire: bytes,
        ingress_port: int = 0,
        timestamp: int | None = None,
    ) -> list[tuple[int, bytes]]:
        """One frame in on a port; returns ``(port, wire)`` outputs."""
        pipeline = self._require_pipeline()
        if not 0 <= ingress_port < len(self.ports):
            raise TargetError(
                f"device {self.name!r} has no port {ingress_port}"
            )
        port = self.ports[ingress_port]
        port.rx_packets += 1
        port.rx_bytes += len(wire)
        run = pipeline.process(
            wire,
            ingress_port=ingress_port,
            timestamp=self.clock_cycles if timestamp is None else timestamp,
        )
        self._account(run)
        return self._emit(run, exclude_port=ingress_port)

    def process_batch(
        self,
        wires,
        ingress_port: int = 0,
        timestamp: int | None = None,
    ) -> list[list[tuple[int, bytes]]]:
        """Process many frames back to back on one port.

        The batched path amortizes per-packet setup: the pipeline,
        port record and accounting callables are resolved once for the
        whole batch, and header extraction inside the compiled parser
        runs over memoryviews so no per-header wire copies are made.
        """
        pipeline = self._require_pipeline()
        if not 0 <= ingress_port < len(self.ports):
            raise TargetError(
                f"device {self.name!r} has no port {ingress_port}"
            )
        port = self.ports[ingress_port]
        run_one = pipeline.process
        account = self._account
        emit = self._emit
        outputs: list[list[tuple[int, bytes]]] = []
        for wire in wires:
            port.rx_packets += 1
            port.rx_bytes += len(wire)
            run = run_one(
                wire,
                ingress_port=ingress_port,
                timestamp=(
                    self.clock_cycles if timestamp is None else timestamp
                ),
            )
            account(run)
            outputs.append(emit(run, exclude_port=ingress_port))
        return outputs

    # ------------------------------------------------------------------
    # NetDebug's internal injection path
    # ------------------------------------------------------------------
    def inject(
        self,
        wire: bytes,
        at: str = TAP_INPUT,
        port: int = 0,
        timestamp: int | None = None,
        emit: bool = False,
    ) -> TargetRun:
        """Inject a test frame directly into the pipeline at tap ``at``.

        Test traffic bypasses the external ports entirely unless
        ``emit`` is set, in which case forwarded output leaves the
        device as ordinary traffic would.
        """
        pipeline = self._require_pipeline()
        run = pipeline.process(
            wire,
            inject_at=at,
            ingress_port=port,
            timestamp=self.clock_cycles if timestamp is None else timestamp,
        )
        self._account(run)
        if emit:
            self._emit(run, exclude_port=port)
        return run

    def inject_batch(
        self,
        wires,
        at: str = TAP_INPUT,
        port: int = 0,
    ) -> list[tuple[int, TargetRun]]:
        """Inject many test frames back to back at tap ``at``.

        Returns ``(timestamp, run)`` per frame, where ``timestamp`` is
        the device clock at injection time (what a wrapped probe would
        carry). Setup is hoisted out of the loop; this is the path
        :meth:`repro.netdebug.generator.PacketGenerator.run_stream`
        uses to drive line-rate streams.
        """
        pipeline = self._require_pipeline()
        run_one = pipeline.process
        account = self._account
        results: list[tuple[int, TargetRun]] = []
        for wire in wires:
            timestamp = self.clock_cycles
            run = run_one(
                wire, inject_at=at, ingress_port=port, timestamp=timestamp
            )
            account(run)
            results.append((timestamp, run))
        return results

    def inject_block(
        self,
        wires,
        timestamps=None,
        port: int = 0,
        ports=None,
        on_error: str = "raise",
    ):
        """Inject a block of test frames through the batch kernel.

        Semantically equivalent to calling :meth:`inject` per frame at
        the ``input`` tap (``timestamps`` optionally pins per-frame
        timestamps; missing entries fall back to the running clock),
        but executed block-wise when the device runs the ``batch``
        engine, no taps are attached and no faults are armed — the
        kernel cannot publish snapshots or model faults, so those
        cases fall back to the per-packet pipeline transparently.

        ``ports`` optionally pins per-frame ingress ports (missing
        entries fall back to the scalar ``port``) — how bidirectional
        streams thread each packet's direction through the block path.

        Returns ``(timestamp, outcome)`` per frame, where ``outcome``
        is the :class:`TargetRun` or — with ``on_error="capture"`` —
        the exception the per-packet path would have raised. The
        default ``on_error="raise"`` re-raises the first (lowest-index)
        captured error after accounting all non-errored frames.
        """
        wires = list(wires)
        pipeline = self._require_pipeline()
        batch = self._batch
        injector = self.injector
        if (
            batch is not None
            and not pipeline.has_taps()
            and not (injector is not None and injector._active)
        ):
            outcomes = batch.run_block(
                wires,
                clock=self.clock_cycles,
                timestamps=timestamps,
                ingress_port=port,
                ingress_ports=ports,
                counters=self._state.counters,
                registers=self._state.registers,
            )
        else:
            outcomes = self._inject_block_fallback(
                wires, timestamps, port, ports
            )
        account = self._account
        results = []
        first_error = None
        for timestamp, run, error in outcomes:
            if error is not None:
                if first_error is None:
                    first_error = error
                results.append((timestamp, error))
            else:
                account(run)
                results.append((timestamp, run))
        if on_error == "raise" and first_error is not None:
            raise first_error
        return results

    def _inject_block_fallback(self, wires, timestamps, port, ports=None):
        """Per-packet block execution with batch-identical outcomes."""
        pipeline = self._pipeline
        clock = self.clock_cycles
        covered = len(timestamps) if timestamps is not None else 0
        ports_covered = len(ports) if ports is not None else 0
        outcomes = []
        for index, wire in enumerate(wires):
            timestamp = (
                timestamps[index] if index < covered else clock
            )
            try:
                run = pipeline.process(
                    wire,
                    ingress_port=(
                        ports[index] if index < ports_covered else port
                    ),
                    timestamp=timestamp,
                )
            except Exception as exc:
                outcomes.append((timestamp, None, exc))
                continue
            clock += run.latency_cycles
            outcomes.append((timestamp, run, None))
        return outcomes

    # ------------------------------------------------------------------
    # Accounting and emission
    # ------------------------------------------------------------------
    def _account(self, run: TargetRun) -> None:
        stats = self.stats
        stats.processed += 1
        self.clock_cycles += run.latency_cycles
        verdict = run.result.verdict
        if verdict is Verdict.PARSER_REJECTED:
            stats.parser_rejected += 1
        elif verdict is Verdict.DROPPED:
            stats.dropped += 1

    def _emit(
        self, run: TargetRun, exclude_port: int | None = None
    ) -> list[tuple[int, bytes]]:
        """Turn a forwarded run into per-port outputs with TX counting."""
        if run.result.verdict is not Verdict.FORWARDED:
            return []
        egress = run.result.metadata.get("egress_spec", 0)
        wire = run.output_wire
        if wire is None:
            wire = run.result.packet.pack()
            run.output_wire = wire
        size = len(wire)
        if egress == FLOOD_PORT:
            outputs = []
            for port in self.ports:
                if port.index == exclude_port:
                    continue
                port.tx_packets += 1
                port.tx_bytes += size
                outputs.append((port.index, wire))
            self.stats.forwarded += 1
            return outputs
        if 0 <= egress < len(self.ports):
            port = self.ports[egress]
            port.tx_packets += 1
            port.tx_bytes += size
            self.stats.forwarded += 1
            return [(egress, wire)]
        self.stats.invalid_egress += 1
        return []

    # ------------------------------------------------------------------
    # Status (the periodic internal-status use case)
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """A structured snapshot of everything the management interface
        can read: stats, ports, program, resources, tables, state."""
        status: dict = {
            "device": self.name,
            "target": self.limits.name,
            "clock_cycles": self.clock_cycles,
            "stats": self.stats.as_dict(),
            "ports": [
                {
                    "port": port.index,
                    "rx_packets": port.rx_packets,
                    "rx_bytes": port.rx_bytes,
                    "tx_packets": port.tx_packets,
                    "tx_bytes": port.tx_bytes,
                }
                for port in self.ports
            ],
        }
        if self._compiled is not None:
            compiled = self._compiled
            status["program"] = compiled.program.name
            status["resources"] = compiled.resources.as_dict()
            status["utilization"] = dict(compiled.utilization)
            status["tables"] = {
                name: {"installed": installed, "capacity": capacity}
                for name, (installed, capacity)
                in self._control.table_occupancy().items()
            }
            status["counters"] = {
                name: list(cells)
                for name, cells in self._state.counters.items()
            }
            status["registers"] = {
                name: list(cells)
                for name, cells in self._state.registers.items()
            }
        return status
