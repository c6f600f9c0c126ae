"""Deparser IR: the ordered list of headers emitted onto the wire.

Per P4 semantics only *valid* headers are emitted; the payload follows the
last emitted header unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import P4ValidationError

__all__ = ["Deparser"]


@dataclass
class Deparser:
    """Emit order for a program's headers."""

    emit_order: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.emit_order) != len(set(self.emit_order)):
            raise P4ValidationError("deparser emits a header twice")

    def add(self, header: str) -> None:
        if header in self.emit_order:
            raise P4ValidationError(
                f"deparser already emits header {header!r}"
            )
        self.emit_order.append(header)

    def emit_prefix(self, env, field_budget: int | None) -> tuple[str, ...]:
        """The emit-order prefix a field-budgeted deparser serializes.

        Walks the emit order accumulating header *field* counts against
        ``field_budget``; the first header that would push the running
        total past the budget — and everything after it — is cut.
        ``None`` means no budget (the full emit order). This is the
        single definition of the Tofino-like deparse-truncation
        deviation, shared by the kernel's source generator, the
        tree-walking interpreter and the differential oracles so they
        cannot drift.
        """
        emit_order = tuple(self.emit_order)
        if field_budget is None:
            return emit_order
        prefix: list[str] = []
        fields = 0
        for name in emit_order:
            fields += len(env.header(name).fields)
            if fields > field_budget:
                break
            prefix.append(name)
        return tuple(prefix)
