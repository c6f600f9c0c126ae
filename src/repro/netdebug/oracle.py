"""The reference oracle as a session-scoped protocol object.

The oracle predicts, for every packet a session injects, what a
spec-faithful target would output. Programs whose behaviour threads
*connection state* across the packet sequence make that prediction
depend on history: ``stateful_firewall``'s register-backed flow table
means the spec-correct prediction for an inbound packet depends on
every outbound packet that preceded it. So the oracle is an object with
an explicit lifetime:

* :class:`ReferenceOracle` compiles the program once into spec-faithful
  closures (:func:`repro.target.fastpath.compile_program` with
  ``honor_reject`` and neither TCAM quantisation nor a deparse budget)
  and owns one :class:`~repro.p4.interpreter.RuntimeState` whose
  registers and counters persist across :meth:`~ReferenceOracle.expect`
  calls. Its contract is **arrival order**: feed it packets in exactly
  the order the device under test will process them, with the same
  per-packet ``ingress_port`` and ``timestamp``, and its predictions
  stay byte-exact for stateful programs.
* :class:`StatelessOracle` is the drop-in subclass that predicts every
  packet from fresh state — the default everywhere, so existing
  campaigns and the committed golden baselines are unaffected unless a
  matrix opts into ``stateful``.

Everything that consumes expectations (sessions, campaigns, regression
recording) goes through an oracle object. The tree-walking
:class:`~repro.p4.interpreter.Interpreter` is not on this path; it stays
the independent ground truth of the differential harness, coverage
replay and the formal baseline, and a pinned test holds the compiled
oracle's predictions equal to its own.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import NetDebugError
from ..p4.interpreter import RuntimeState, Verdict
from ..p4.program import P4Program
from ..target.device import FLOOD_PORT
from ..target.fastpath import compile_program
from .checker import ExpectedOutput

__all__ = [
    "ReferenceOracle",
    "StatelessOracle",
    "ORACLES",
    "OracleFactory",
    "require_known_oracle",
]

#: The signature every oracle factory satisfies: build one oracle for a
#: session over ``program`` on a device with ``num_ports`` ports.
OracleFactory = Callable[..., "ReferenceOracle"]


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

    The program is compiled per oracle, not cached by program: a cache
    outliving the oracle would keep every epoch's program alive.
    """

    #: Whether predictions depend on the packets fed before them.
    stateful = True

    def __init__(
        self, program: P4Program, num_ports: int | None = None
    ) -> None:
        self.program = program
        self.num_ports = num_ports
        self._compiled = compile_program(program, honor_reject=True)
        self.state = RuntimeState.for_program(program)

    def reset(self) -> None:
        """Forget all threaded state (fresh registers and counters)."""
        self.state = RuntimeState.for_program(self.program)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _process(self, wire: bytes, ingress_port: int, timestamp: int):
        return self._compiled.run(wire, ingress_port, timestamp, self.state)

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
        result = self._process(wire, ingress_port, timestamp)
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
        """
        ports_covered = len(ingress_ports) if ingress_ports else 0
        times_covered = len(timestamps) if timestamps else 0
        return [
            self.expect(
                wire,
                ingress_port=(
                    ingress_ports[i] if i < ports_covered else 0
                ),
                timestamp=timestamps[i] if i < times_covered else 0,
                label=f"{label}#{i}" if label else "",
            )
            for i, wire in enumerate(wires)
        ]


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
        return self._compiled.run(wire, ingress_port, timestamp)


#: Named oracle factories scenario matrices reference (``oracle=`` axis).
#: Module-level classes only: campaign job tuples carry the factory into
#: worker processes by pickle-by-reference.
ORACLES: dict[str, OracleFactory] = {
    "stateless": StatelessOracle,
    "stateful": ReferenceOracle,
}


def require_known_oracle(oracle: str, where: str) -> None:
    """Raise :class:`NetDebugError` unless ``oracle`` names a registered
    factory — the oracle-axis counterpart of ``require_known_target``."""
    if oracle not in ORACLES:
        known = ", ".join(sorted(ORACLES))
        raise NetDebugError(
            f"{where} references unknown oracle {oracle!r}; "
            f"registry offers: {known}"
        )
