"""Concrete packet model.

A :class:`Packet` is an ordered stack of :class:`Header` instances plus an
opaque payload, together with mutable metadata (ingress port, timestamps...)
used by the simulated targets. Packets serialize to exact wire bytes and
parse back, and the round-trip is the property the test suite leans on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from typing import Iterator

from ..exceptions import PacketError
from .fields import HeaderSpec

__all__ = ["Header", "Packet"]


class Header:
    """One protocol header instance: a layout plus concrete field values.

    Field access is attribute-style (``hdr.ttl``) and item-style
    (``hdr["ttl"]``); both validate the field name and value width.
    """

    __slots__ = ("spec", "_values", "valid")

    def __init__(self, spec: HeaderSpec, values: dict[str, int] | None = None,
                 valid: bool = True):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "valid", valid)
        filled = dict(spec._defaults)
        if values:
            limits = spec._limits
            for name, value in values.items():
                limit = limits.get(name)
                if limit is None or not 0 <= value <= limit:
                    spec.check_value(name, value)  # raises the exact error
                filled[name] = value
        object.__setattr__(self, "_values", filled)

    @property
    def name(self) -> str:
        return self.spec.name

    def __getattr__(self, name: str) -> int:
        values = object.__getattribute__(self, "_values")
        if name in values:
            return values[name]
        raise AttributeError(
            f"header {self.spec.name!r} has no field {name!r}"
        )

    def __setattr__(self, name: str, value: int) -> None:
        if name in ("valid",):
            object.__setattr__(self, name, value)
            return
        self[name] = value

    def __getitem__(self, name: str) -> int:
        try:
            return self._values[name]
        except KeyError:
            raise PacketError(
                f"header {self.spec.name!r} has no field {name!r}"
            ) from None

    def __setitem__(self, name: str, value: int) -> None:
        self._values[name] = self.spec.check_value(name, value)

    def values(self) -> dict[str, int]:
        """A copy of the current field-value mapping."""
        return dict(self._values)

    def pack(self) -> bytes:
        """Serialize this header to wire bytes."""
        return self.spec.pack(self._values)

    @classmethod
    def unpack(cls, spec: HeaderSpec, data: bytes) -> "Header":
        """Parse a header of layout ``spec`` from the front of ``data``."""
        return cls(spec, spec.unpack(data))

    def copy(self) -> "Header":
        return Header(self.spec, dict(self._values), self.valid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Header):
            return NotImplemented
        return (
            self.spec.name == other.spec.name
            and self._values == other._values
            and self.valid == other.valid
        )

    def __hash__(self):  # headers are mutable; keep them unhashable
        raise TypeError("Header instances are mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:#x}" for k, v in self._values.items())
        return f"Header({self.spec.name}, {inner})"


@dataclass
class Packet:
    """An ordered header stack plus payload and per-packet metadata.

    Metadata is never serialized; it models the sideband information a
    hardware pipeline carries alongside each packet (ingress port, queue,
    timestamps, drop flag).
    """

    headers: list[Header] = dc_field(default_factory=list)
    payload: bytes = b""
    metadata: dict[str, int] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for header in self.headers:
            if header.name in seen:
                raise PacketError(
                    f"duplicate header {header.name!r}; header stacks of the "
                    "same type are not supported by this model"
                )
            seen.add(header.name)

    # ------------------------------------------------------------------
    # Header-stack operations
    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        """True when a valid header called ``name`` is present."""
        return any(h.name == name and h.valid for h in self.headers)

    def get(self, name: str) -> Header:
        """Return the header called ``name``; raises if absent."""
        for header in self.headers:
            if header.name == name:
                return header
        raise PacketError(f"packet has no header {name!r}")

    def get_or_none(self, name: str) -> Header | None:
        for header in self.headers:
            if header.name == name:
                return header
        return None

    def push(self, header: Header, after: str | None = None) -> None:
        """Insert ``header`` at the front, or immediately after ``after``."""
        if any(h.name == header.name for h in self.headers):
            raise PacketError(f"packet already has header {header.name!r}")
        if after is None:
            self.headers.insert(0, header)
            return
        for index, existing in enumerate(self.headers):
            if existing.name == after:
                self.headers.insert(index + 1, header)
                return
        raise PacketError(f"packet has no header {after!r} to insert after")

    def append(self, header: Header) -> None:
        """Append ``header`` at the end of the stack."""
        if any(h.name == header.name for h in self.headers):
            raise PacketError(f"packet already has header {header.name!r}")
        self.headers.append(header)

    def remove(self, name: str) -> Header:
        """Remove and return the header called ``name``."""
        for index, header in enumerate(self.headers):
            if header.name == name:
                return self.headers.pop(index)
        raise PacketError(f"packet has no header {name!r}")

    def header_names(self) -> list[str]:
        return [h.name for h in self.headers]

    def __iter__(self) -> Iterator[Header]:
        return iter(self.headers)

    # ------------------------------------------------------------------
    # Field access: "ethernet.dst_addr" style dotted paths
    # ------------------------------------------------------------------
    def get_field(self, path: str) -> int:
        """Read a field via a dotted ``header.field`` path."""
        header_name, _, field_name = path.partition(".")
        if not field_name:
            raise PacketError(f"field path {path!r} must be 'header.field'")
        return self.get(header_name)[field_name]

    def set_field(self, path: str, value: int) -> None:
        """Write a field via a dotted ``header.field`` path."""
        header_name, _, field_name = path.partition(".")
        if not field_name:
            raise PacketError(f"field path {path!r} must be 'header.field'")
        self.get(header_name)[field_name] = value

    # ------------------------------------------------------------------
    # Wire serialization
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Serialize valid headers (in stack order) followed by the payload."""
        parts = [h.pack() for h in self.headers if h.valid]
        parts.append(self.payload)
        return b"".join(parts)

    @property
    def wire_length(self) -> int:
        """Total serialized length in bytes."""
        return sum(h.spec.byte_width for h in self.headers if h.valid) + len(
            self.payload
        )

    def copy(self) -> "Packet":
        """Deep copy, including metadata."""
        return Packet(
            headers=[h.copy() for h in self.headers],
            payload=self.payload,
            metadata=copy.deepcopy(self.metadata),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.headers == other.headers
            and self.payload == other.payload
        )

    def summary(self) -> str:
        """One-line human-readable description used in reports."""
        stack = "/".join(h.name for h in self.headers if h.valid) or "raw"
        return f"<{stack} +{len(self.payload)}B payload>"
