"""The simulated network device: ports, pipeline, management interface.

A :class:`NetworkDevice` wires an installed artifact's batch kernel
(``CompiledProgram.kernel``, :mod:`repro.target.batch`) behind external
traffic ports, holds its runtime state, taps and fault injector, tracks
per-port and device-wide statistics, advances a clock by the kernel's
cycle model, and exposes the *dedicated management interface* NetDebug
relies on: loading programs, the control plane, internal taps, direct
mid-pipeline injection (which never touches the traffic ports), fault
injection, and structured status reads.

Two traffic paths exist:

* :meth:`process` — the external path: a frame arrives on a port,
  counters move, and forwarded output leaves on ports (with
  :data:`FLOOD_PORT` flooding all ports but the ingress).
* :meth:`inject` / :meth:`inject_batch` / :meth:`inject_block` —
  NetDebug's internal path: test packets enter the pipeline directly
  at any tap and, by default, never emerge on the wire. Device
  statistics still account for them (the hardware did process the
  packet); port counters do not.

A device has one execution driver: the artifact's batch kernel.
:meth:`inject_block` hands it a whole block; :meth:`process`,
:meth:`inject` and :meth:`inject_batch` hand it blocks of one. When a
tap is attached, a fault is armed or a packet enters past ``input``,
the device's :meth:`~NetworkDevice.hooks` send the block down the
kernel's packet-major schedule with hooks; otherwise it runs
hook-free.
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
from .pipeline import StageHooks, TAP_INPUT, TargetRun

__all__ = [
    "FLOOD_PORT",
    "Port",
    "DeviceStats",
    "NetworkDevice",
]

#: Egress value meaning "flood to every port except the ingress".
FLOOD_PORT = 0x1FF


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
    ):
        self.name = name
        self.compiler = compiler
        self.limits: ArchLimits = compiler.limits
        self.ports = [Port(index) for index in range(num_ports)]
        self.stats = DeviceStats()
        self.injector = FaultInjector()
        self.clock_cycles = 0
        self._compiled: CompiledProgram | None = None
        self._control: RuntimeAPI | None = None
        self._state: RuntimeState | None = None
        #: Stage name -> index in the kernel's stage table, and the
        #: callbacks attached at each stage (both set by ``install``).
        self._stage_index: dict[str, int] = {}
        self._taps: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Program lifecycle
    # ------------------------------------------------------------------
    def load(self, program: P4Program) -> CompiledProgram:
        """Compile ``program`` for this target and install it."""
        return self.install(self.compiler.compile(program))

    def install(self, compiled: CompiledProgram) -> CompiledProgram:
        """Install an already-compiled artifact, skipping compilation.

        The artifact itself is stateless — its kernel reads all mutable
        state (counters, registers, metadata) from per-run structures —
        so one :class:`CompiledProgram` can back many devices. This is
        the campaign worker path: each worker compiles a program once
        and stamps out a fresh device (fresh runtime state, stats,
        clock, fault set, taps) per shard. Note the *program*
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
        names = compiled.kernel.stage_names
        self._stage_index = {name: index for index, name in enumerate(names)}
        self._taps = {name: [] for name in names}
        return compiled

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
    def state(self) -> RuntimeState:
        """The installed program's runtime state (counters, registers)."""
        if self._state is None:
            raise TargetError(
                f"device {self.name!r} has no program loaded"
            )
        return self._state

    # ------------------------------------------------------------------
    # Management interface: taps, topology, cycle model
    # ------------------------------------------------------------------
    def stage_names(self) -> list[str]:
        """All stage/tap names, in traversal order."""
        return list(self.compiled.kernel.stage_names)

    def _stage_taps(self, stage: str) -> list:
        self.compiled  # raises when no program is loaded
        try:
            return self._taps[stage]
        except KeyError:
            raise TargetError(f"no tap point {stage!r}") from None

    def attach_tap(self, stage: str, callback) -> None:
        """Attach ``callback`` to observe snapshots at ``stage``."""
        self._stage_taps(stage).append(callback)

    def detach_tap(self, stage: str, callback) -> None:
        try:
            self._stage_taps(stage).remove(callback)
        except ValueError:
            raise TargetError(
                f"callback is not attached at tap {stage!r}"
            ) from None

    def stage_cycles(self, stage: str, frame_bytes: int) -> int:
        """Deterministic cycle cost of one stage for one frame (the
        kernel's cycle model,
        :meth:`~repro.target.batch.BatchProgram.stage_cycles`)."""
        return self.compiled.kernel.stage_cycles(stage, frame_bytes)

    def hooks(self, inject_at: str = TAP_INPUT) -> StageHooks | None:
        """The kernel hooks for packets entering at ``inject_at``, or
        ``None`` when nothing observes, perturbs or skips a stage: no
        tap attached, no fault armed, injection at ``input``."""
        try:
            start = self._stage_index[inject_at]
        except KeyError:
            raise TargetError(
                f"unknown injection point {inject_at!r}"
            ) from None
        injector = self.injector
        if (
            start == 0
            and not injector._active
            and not any(self._taps.values())
        ):
            return None
        return StageHooks(start, self._taps, injector)

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
        self.compiled  # raises when no program is loaded
        if not 0 <= ingress_port < len(self.ports):
            raise TargetError(
                f"device {self.name!r} has no port {ingress_port}"
            )
        port = self.ports[ingress_port]
        port.rx_packets += 1
        port.rx_bytes += len(wire)
        run = self._run_one(wire, TAP_INPUT, ingress_port, timestamp)
        self._account(run)
        return self._emit(run, exclude_port=ingress_port)

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
        run = self._run_one(wire, at, port, timestamp)
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
        carry). Each frame is a block of one, so an error stops the
        batch at that frame, as a loop of :meth:`inject` calls would.
        """
        results: list[tuple[int, TargetRun]] = []
        for wire in wires:
            timestamp = self.clock_cycles
            run = self._run_one(wire, at, port, timestamp)
            self._account(run)
            results.append((timestamp, run))
        return results

    def inject_block(
        self,
        wires,
        timestamps=None,
        port: int = 0,
        ports=None,
        on_error: str = "raise",
        at: str = TAP_INPUT,
    ):
        """Inject a block of test frames at tap ``at``.

        Semantically equivalent to calling :meth:`inject` per frame
        (``timestamps`` optionally pins per-frame timestamps; missing
        entries fall back to the running clock). With a tap attached, a
        fault armed or ``at`` past ``input`` the block runs packet by
        packet on the kernel's hooked schedule, so taps see and faults
        act on every frame.

        The clock and :attr:`stats` are accounted after the whole
        block: a tap callback that reads :attr:`clock_cycles` or
        :attr:`stats` mid-block sees their values from the start of
        the block, where an :meth:`inject` loop would show each
        earlier frame's effect.

        ``ports`` optionally pins per-frame ingress ports (missing
        entries fall back to the scalar ``port``) — how bidirectional
        streams thread each packet's direction through the block path.

        Returns ``(timestamp, outcome)`` per frame, where ``outcome``
        is the :class:`TargetRun` or — with ``on_error="capture"`` —
        the exception the per-packet path would have raised. The
        default ``on_error="raise"`` re-raises the first (lowest-index)
        captured error after accounting all non-errored frames.
        """
        if on_error not in ("raise", "capture"):
            raise TargetError(
                f"on_error must be 'raise' or 'capture', got {on_error!r}"
            )
        outcomes = self._run(wires, at, timestamps, port, ports)
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

    def _run(self, wires, at, timestamps, port, ports):
        """``(timestamp, run, error)`` per frame from the batch kernel,
        with the device's hooks for injection at ``at``."""
        kernel = self.compiled.kernel
        state = self._state
        return kernel.run_block(
            wires,
            clock=self.clock_cycles,
            timestamps=timestamps,
            ingress_port=port,
            ingress_ports=ports,
            counters=state.counters,
            registers=state.registers,
            hooks=self.hooks(at),
        )

    def _run_one(self, wire, at, port, timestamp) -> TargetRun:
        """One frame as a block of one; raises the frame's error."""
        [(_, run, error)] = self._run(
            (wire,), at, None if timestamp is None else (timestamp,),
            port, None,
        )
        if error is not None:
            raise error
        return run

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
