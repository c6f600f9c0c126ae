"""Header layout descriptions.

A :class:`HeaderSpec` is an ordered list of named bit fields. It is the
single source of truth for a header's wire layout and is shared between the
concrete packet model (:mod:`repro.packet.packet`) and the P4 intermediate
representation (:mod:`repro.p4.types`), so a program's view of a header and
the bytes on the wire can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitutils import bytes_needed, check_width, mask
from ..exceptions import PacketError

__all__ = ["FieldSpec", "HeaderSpec"]


@dataclass(frozen=True)
class FieldSpec:
    """A single named bit field inside a header.

    Attributes:
        name: Field name, unique within its header.
        width: Field width in bits (>= 1).
        default: Value used when a header instance is created without an
            explicit value for this field.
    """

    name: str
    width: int
    default: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise PacketError("field name must be non-empty")
        if self.width <= 0:
            raise PacketError(f"field {self.name!r} must have positive width")
        check_width(self.default, self.width, f"default of field {self.name!r}")

    @property
    def max_value(self) -> int:
        """Largest value representable by this field."""
        return mask(self.width)


@dataclass(frozen=True)
class HeaderSpec:
    """An ordered, byte-aligned collection of bit fields.

    The total width must be a whole number of bytes, matching the constraint
    real hardware parsers place on header boundaries.

    The layout derived from ``fields`` (offsets, width limits, defaults)
    is computed once at construction and kept as plain attributes rather
    than dataclass fields: the artifact cache keys programs by walking
    every dataclass field, and derived state would only lengthen that
    walk without distinguishing any two specs.
    """

    name: str
    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise PacketError("header name must be non-empty")
        if not self.fields:
            raise PacketError(f"header {self.name!r} must have fields")
        by_name: dict[str, FieldSpec] = {}
        offsets: dict[str, int] = {}
        offset = 0
        for spec in self.fields:
            if spec.name in by_name:
                raise PacketError(
                    f"duplicate field {spec.name!r} in header {self.name!r}"
                )
            by_name[spec.name] = spec
            offsets[spec.name] = offset
            offset += spec.width
        if offset % 8 != 0:
            raise PacketError(
                f"header {self.name!r} is {offset} bits, not byte-aligned"
            )
        layout = tuple(
            (f.name, f.width, mask(f.width), f.default) for f in self.fields
        )
        derived = {
            "_by_name": by_name,
            "_offsets": offsets,
            "_names": frozenset(by_name),
            "_bit_width": offset,
            "_byte_width": bytes_needed(offset),
            # (name, width, largest value, default) per field, wire order.
            "_layout": layout,
            "_limits": {name: limit for name, _, limit, _ in layout},
            "_defaults": {name: default for name, _, _, default in layout},
        }
        for attribute, value in derived.items():
            object.__setattr__(self, attribute, value)

    def __reduce__(self):
        # Pickle the declaration only; unpickling re-derives the layout.
        return HeaderSpec, (self.name, self.fields)

    @classmethod
    def build(cls, name: str, *fields: tuple[str, int] | FieldSpec) -> "HeaderSpec":
        """Convenience constructor from ``(name, width)`` tuples."""
        specs = tuple(
            f if isinstance(f, FieldSpec) else FieldSpec(f[0], f[1]) for f in fields
        )
        return cls(name, specs)

    @property
    def bit_width(self) -> int:
        """Total header width in bits."""
        return self._bit_width

    @property
    def byte_width(self) -> int:
        """Total header width in whole bytes."""
        return self._byte_width

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field(self, name: str) -> FieldSpec:
        """Look up a field by name; raises :class:`PacketError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise PacketError(
                f"header {self.name!r} has no field {name!r}"
            ) from None

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def offset_of(self, name: str) -> int:
        """Bit offset of ``name`` from the start of the header."""
        self.field(name)
        return self._offsets[name]

    def check_value(self, name: str, value: int) -> int:
        """Validate ``value`` for field ``name`` and return it.

        Raises :class:`PacketError` for an unknown field or a value that
        is negative or wider than the field (the :func:`check_width`
        messages).
        """
        limit = self._limits.get(name)
        if limit is None:
            self.field(name)  # raises the unknown-field error
        if not 0 <= value <= limit:
            check_width(value, self._by_name[name].width, f"{self.name}.{name}")
        return value

    def pack(self, values: dict[str, int]) -> bytes:
        """Serialize a complete field-value mapping to wire bytes.

        Missing fields take their defaults; unknown fields are an error.
        Every field is shifted into one integer, serialized once.
        """
        if not self._names.issuperset(values):
            unknown = set(values) - self._names
            raise PacketError(
                f"unknown fields for header {self.name!r}: {sorted(unknown)}"
            )
        word = 0
        for name, width, limit, default in self._layout:
            value = values.get(name, default)
            if not 0 <= value <= limit:
                check_width(value, width, f"{self.name}.{name}")
            word = (word << width) | value
        return word.to_bytes(self._byte_width, "big")

    def unpack(self, data: bytes) -> dict[str, int]:
        """Parse ``data`` (at least ``byte_width`` bytes) into field values."""
        size = self._byte_width
        if len(data) < size:
            raise PacketError(
                f"need {size} bytes to parse header "
                f"{self.name!r}, got {len(data)}"
            )
        word = int.from_bytes(data[:size], "big")
        shift = self._bit_width
        values = {}
        for name, width, limit, _ in self._layout:
            shift -= width
            values[name] = (word >> shift) & limit
        return values
