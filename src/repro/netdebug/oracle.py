"""The reference oracle as a session-scoped protocol object.

The oracle predicts, for every packet a session injects, what a
spec-faithful target would output. Programs whose behaviour threads
*connection state* across the packet sequence make that prediction
depend on history: ``stateful_firewall``'s register-backed flow table
means the spec-correct prediction for an inbound packet depends on
every outbound packet that preceded it. So the oracle is an object with
an explicit lifetime:

* :class:`ReferenceOracle` predicts through a spec artifact
  (:func:`compile_spec`) — the program compiled once
  (:func:`repro.target.fastpath.compile_program` with ``honor_reject``
  and neither TCAM quantisation nor a deparse budget) and run by the
  batch kernel (:mod:`repro.target.batch`), the one execution driver
  the devices use too — and owns one
  :class:`~repro.p4.interpreter.RuntimeState` whose registers and
  counters persist across :meth:`~ReferenceOracle.expect` calls. Its
  contract is **arrival order**: feed it packets in exactly the order
  the device under test will process them, with the same per-packet
  ``ingress_port`` and ``timestamp``, and its predictions stay
  byte-exact for stateful programs.
* :class:`StatelessOracle` is the drop-in subclass that predicts every
  packet from fresh state — the default everywhere, so existing
  campaigns and the committed golden baselines are unaffected unless a
  matrix opts into ``stateful``.

On a register-free program, the stateless oracle's
:meth:`~ReferenceOracle.expect_all` predicts a whole cell as one
columnar block through the spec kernel. Everywhere else prediction is
per packet (:meth:`~ReferenceOracle.expect`), each packet a block of
one (the kernel's packet-major schedule): over the oracle's own state
for the stateful oracle, over a fresh ``RuntimeState`` for stateless
prediction on a register-bearing program. A subclass that overrides
``_process`` is honoured by ``expect_all`` too.

A session builds its oracle through :func:`build_oracle`, which
compiles one spec artifact (:func:`compile_spec`) per device artifact,
keeps it on that artifact (a campaign holds those in its bounded
artifact tier) and hands it to every oracle over the same program, so
an oracle costs a fresh ``RuntimeState``. An oracle built outside a
session compiles its own on first use.

Everything that consumes expectations (sessions, campaigns, regression
recording) goes through an oracle object. The tree-walking
:class:`~repro.p4.interpreter.Interpreter` is not on this path; it stays
the independent ground truth of the differential harness, coverage
replay and the formal baseline, and a pinned test holds the block and
per-packet oracles' predictions equal to its own.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import NetDebugError
from ..p4.interpreter import RuntimeState, Verdict
from ..p4.program import P4Program
from ..target.batch import get_batch_program
from ..target.compiler import CompiledProgram
from ..target.device import FLOOD_PORT, NetworkDevice
from ..target.fastpath import compile_program
from ..target.limits import REFERENCE_LIMITS
from .checker import ExpectedOutput

__all__ = [
    "ReferenceOracle",
    "StatelessOracle",
    "compile_spec",
    "build_oracle",
    "ORACLES",
    "OracleFactory",
    "require_known_oracle",
]

#: The signature every oracle factory satisfies: build one oracle for a
#: session over ``program`` on a device with ``num_ports`` ports.
OracleFactory = Callable[..., "ReferenceOracle"]


def compile_spec(program: P4Program) -> CompiledProgram:
    """``program`` compiled for spec-faithful prediction:
    ``honor_reject=True``, with neither TCAM quantisation nor a deparse
    budget. The batch kernel over it is built on first use
    (:func:`~repro.target.batch.get_batch_program`) and kept on the
    returned artifact. Both are read-only: all mutable state lives in
    the ``RuntimeState`` each oracle passes in, so one spec artifact
    serves every oracle over the same program object."""
    return CompiledProgram(
        program,
        "spec",
        honor_reject=True,
        fast=compile_program(program, honor_reject=True),
    )


def _prefix_then_zero(values, n: int) -> list:
    """``values`` covering a prefix of ``n`` lanes, the rest 0."""
    covered = list(values[:n]) if values else []
    return covered + [0] * (n - len(covered))


class ReferenceOracle:
    """A session-scoped spec-faithful oracle with persistent state.

    One instance serves one validation session (or one campaign shard):
    its registers and counters (:attr:`state`) evolve with every
    :meth:`expect` call, exactly as the device's runtime state evolves
    with every injected packet. The **arrival-order contract**: call
    :meth:`expect` once per packet, in injection order, with the same
    ``ingress_port`` and ``timestamp`` the device will see — predictions
    for register-dependent behaviour are only meaningful under that
    discipline, which is also why campaign sharding keeps all packets
    of one session on one shard (state cannot thread across shards).

    The :attr:`spec` artifact is compiled on first use unless one is
    assigned first (:func:`build_oracle` assigns the one kept on the
    device's artifact). No module-level cache keyed by program exists:
    it would pin every program object it ever saw, table entries
    included.
    """

    #: Whether predictions depend on the packets fed before them.
    stateful = True

    def __init__(
        self, program: P4Program, num_ports: int | None = None
    ) -> None:
        self.program = program
        self.num_ports = num_ports
        self.state = RuntimeState.for_program(program)
        self._spec: CompiledProgram | None = None

    @property
    def spec(self) -> CompiledProgram:
        """The spec artifact (:func:`compile_spec`) this oracle predicts
        with; it must be over this oracle's program object."""
        spec = self._spec
        if spec is None:
            spec = self._spec = compile_spec(self.program)
        return spec

    @spec.setter
    def spec(self, spec: CompiledProgram) -> None:
        self._spec = spec

    def reset(self) -> None:
        """Forget all threaded state (fresh registers and counters)."""
        self.state = RuntimeState.for_program(self.program)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _process(self, wire: bytes, ingress_port: int, timestamp: int):
        return self._predict(wire, ingress_port, timestamp, self.state)

    def _predict(
        self, wire: bytes, ingress_port: int, timestamp: int,
        state: RuntimeState,
    ):
        """One packet as a block of one over ``state`` (the kernel's
        packet-major schedule); raises the packet's error."""
        _, run, error = get_batch_program(
            self.spec, REFERENCE_LIMITS
        ).run_block(
            (wire,),
            timestamps=(timestamp,),
            ingress_ports=(ingress_port,),
            counters=state.counters,
            registers=state.registers,
        )[0]
        if error is not None:
            raise error
        return run.result

    def _expectation(
        self, result, ingress_port: int, label: str
    ) -> ExpectedOutput:
        """Turn one spec run into the expectation the checker grades."""
        if result.verdict is not Verdict.FORWARDED:
            return ExpectedOutput(
                forbid=True,
                label=label or f"must-drop ({result.verdict.value})",
            )
        egress = result.metadata.get("egress_spec")
        if egress is None:
            raise NetDebugError(
                f"reference oracle forwarded a packet on "
                f"{self.program.name!r} without an egress_spec in its "
                "metadata; the oracle cannot predict an output port"
            )
        if egress == FLOOD_PORT:
            if self.num_ports is None:
                raise NetDebugError(
                    f"reference oracle predicted a flood on "
                    f"{self.program.name!r} but was built without "
                    "num_ports; an empty per-port expansion would "
                    "validate nothing — pass the device's port count"
                )
            ports = tuple(
                p for p in range(self.num_ports) if p != ingress_port
            )
            return ExpectedOutput(
                wire=result.packet.pack(),
                egress_ports=ports,
                label=label or "reference-flood",
            )
        return ExpectedOutput(
            wire=result.packet.pack(),
            egress_port=egress,
            label=label or "reference-output",
        )

    def expect(
        self,
        wire: bytes,
        ingress_port: int = 0,
        timestamp: int = 0,
        label: str = "",
    ) -> ExpectedOutput:
        """Predict the spec-correct outcome for the *next* packet.

        A drop/reject prediction becomes a ``forbid`` expectation; a
        unicast forward prediction pins the exact output bytes and
        egress port. ``timestamp`` is the planned injection time in
        device-clock cycles; programs whose output bytes depend on it
        (e.g. ``int_telemetry`` stamping ``ingress_ts``) validate
        byte-exactly only when the oracle sees the same timestamp the
        device will.

        A *flood* prediction (``egress_spec`` equal to
        :data:`~repro.target.device.FLOOD_PORT`) is expanded to the
        per-port expected outputs — every port except the ingress —
        which requires the oracle to know the device's port count:
        constructed without ``num_ports``, a flood prediction raises
        :class:`NetDebugError` instead of silently expanding to zero
        ports (an empty ``egress_ports`` checks nothing, the same false
        confidence the missing-``egress_spec`` guard below exists to
        prevent). Raises :class:`NetDebugError` likewise when the run
        produced no ``egress_spec`` metadata at all.
        """
        return self._expectation(
            self._process(wire, ingress_port, timestamp),
            ingress_port,
            label,
        )

    def expect_all(
        self,
        wires,
        ingress_ports=None,
        timestamps=None,
        label: str = "",
    ) -> list[ExpectedOutput]:
        """Predict a whole arrival sequence, in order.

        ``ingress_ports`` / ``timestamps`` cover a prefix (short or
        ``None`` falls back to port 0 / timestamp 0, matching the
        injection paths' fallbacks); ``label`` becomes ``label#i``.
        The sequence runs as one block through the spec kernel where
        the oracle allows it (see the module docstring); either way the
        expectations, the final state and the first error raised — its
        type, message and packet index — are those of calling
        :meth:`expect` once per packet.
        """
        wires = list(wires)
        n = len(wires)
        ports = _prefix_then_zero(ingress_ports, n)
        times = _prefix_then_zero(timestamps, n)
        labels = (
            [f"{label}#{i}" for i in range(n)] if label else [""] * n
        )
        # Only the stateless oracle's own ``_process`` has a block form;
        # a subclass overriding ``_process`` predicts packet by packet.
        outcomes = (
            self._process_block(wires, ports, times)
            if type(self)._process is StatelessOracle._process
            else None
        )
        if outcomes is None:
            return [
                self.expect(wire, ports[i], times[i], labels[i])
                for i, wire in enumerate(wires)
            ]
        expectation = self._expectation
        expectations = []
        for i, (_, run, error) in enumerate(outcomes):
            if error is not None:
                raise error
            expectations.append(expectation(run.result, ports[i], labels[i]))
        return expectations


class StatelessOracle(ReferenceOracle):
    """The fresh-state-per-packet oracle.

    Every :meth:`~ReferenceOracle.expect` call runs on brand-new
    registers and counters, so predictions are independent of arrival
    order — correct for register-free programs, and the semantics every
    pre-existing campaign, regression suite and golden baseline were
    recorded under.
    """

    stateful = False

    def _process(self, wire: bytes, ingress_port: int, timestamp: int):
        return self._predict(
            wire, ingress_port, timestamp,
            RuntimeState.for_program(self.program),
        )

    def _process_block(self, wires, ingress_ports, timestamps):
        """Kernel outcomes ``(timestamp, run, error)`` of one columnar
        block, or ``None`` to predict packet by packet."""
        if self.program.registers:
            # Fresh registers per packet cannot share one block.
            return None
        # Counters are write-only, so one fresh set serves every lane.
        fresh = RuntimeState.for_program(self.program)
        return get_batch_program(self.spec, REFERENCE_LIMITS).run_block(
            wires,
            timestamps=timestamps,
            ingress_ports=ingress_ports,
            counters=fresh.counters,
            registers=fresh.registers,
        )


#: Named oracle factories scenario matrices reference (``oracle=`` axis).
#: Module-level classes only: campaign job tuples carry the factory into
#: worker processes by pickle-by-reference.
ORACLES: dict[str, OracleFactory] = {
    "stateless": StatelessOracle,
    "stateful": ReferenceOracle,
}


def build_oracle(
    factory: OracleFactory, device: NetworkDevice
) -> ReferenceOracle:
    """``factory``'s oracle for one session on ``device``: built over
    the device's program with the device's port count, and handed the
    spec artifact kept on the device's compiled artifact (compiled
    there on first use), so every session over one artifact shares one
    spec kernel and an oracle costs fresh state. An oracle over another
    program object compiles its own."""
    oracle = factory(device.program, num_ports=len(device.ports))
    if (
        isinstance(oracle, ReferenceOracle)
        and oracle.program is device.program
    ):
        compiled = device.compiled
        if compiled.spec is None:
            compiled.spec = compile_spec(device.program)
        oracle.spec = compiled.spec
    return oracle


def require_known_oracle(oracle: str, where: str) -> None:
    """Raise :class:`NetDebugError` unless ``oracle`` names a registered
    factory — the oracle-axis counterpart of ``require_known_target``."""
    if oracle not in ORACLES:
        known = ", ".join(sorted(ORACLES))
        raise NetDebugError(
            f"{where} references unknown oracle {oracle!r}; "
            f"registry offers: {known}"
        )
