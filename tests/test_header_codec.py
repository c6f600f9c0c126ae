"""The header codec against the bit-by-bit reference.

``HeaderSpec.pack``/``unpack`` shift whole headers through one integer.
:func:`repro.bitutils.set_bits` / :func:`~repro.bitutils.get_bits` stay
the reference: writing and reading one field at a time, at its offset,
must give the same bytes and values on every byte-aligned layout,
including the odd widths real headers use (1, 3, 13, 48 ...).
"""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitutils import get_bits, mask, set_bits
from repro.exceptions import PacketError
from repro.packet.fields import FieldSpec, HeaderSpec
from repro.packet.packet import Header

WIDTHS = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 24, 32, 48, 64])


@st.composite
def header_specs(draw):
    """A random byte-aligned spec; the last field pads to a byte."""
    widths = draw(st.lists(WIDTHS, min_size=1, max_size=8))
    pad = -sum(widths) % 8
    if pad:
        widths.append(pad)
    fields = []
    for index, width in enumerate(widths):
        default = draw(st.integers(min_value=0, max_value=mask(width)))
        fields.append(FieldSpec(f"f{index}", width, default))
    return HeaderSpec("h", tuple(fields))


@st.composite
def specs_and_values(draw):
    """A spec plus values for a random subset of its fields."""
    spec = draw(header_specs())
    values = {}
    for f in spec.fields:
        if draw(st.booleans()):
            values[f.name] = draw(
                st.integers(min_value=0, max_value=mask(f.width))
            )
    return spec, values


def reference_pack(spec: HeaderSpec, values: dict) -> bytes:
    buf = bytearray(spec.byte_width)
    for f in spec.fields:
        set_bits(
            buf, spec.offset_of(f.name), f.width,
            values.get(f.name, f.default),
        )
    return bytes(buf)


def reference_unpack(spec: HeaderSpec, data: bytes) -> dict:
    return {
        f.name: get_bits(data, spec.offset_of(f.name), f.width)
        for f in spec.fields
    }


@given(specs_and_values())
@settings(max_examples=200)
def test_pack_matches_bitwise_reference(case):
    spec, values = case
    assert spec.pack(values) == reference_pack(spec, values)
    assert Header(spec, values).pack() == reference_pack(spec, values)


@given(header_specs(), st.data())
@settings(max_examples=200)
def test_unpack_matches_bitwise_reference_and_round_trips(spec, data):
    wire = data.draw(st.binary(
        min_size=spec.byte_width, max_size=spec.byte_width + 4
    ))
    values = spec.unpack(wire)
    assert values == reference_unpack(spec, wire)
    assert list(values) == list(spec.field_names)
    assert spec.pack(values) == wire[:spec.byte_width]
    assert Header.unpack(spec, wire).values() == values


def test_layout_survives_pickle_and_copy():
    spec = HeaderSpec.build("h", ("a", 3), ("b", 13), ("c", 48))
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert clone == spec
        assert clone.bit_width == 64 and clone.byte_width == 8
        values = {"a": 5, "b": 0x1ABC, "c": 0xDEADBEEF01}
        assert clone.pack(values) == spec.pack(values)


SPEC = HeaderSpec.build("h", ("a", 3), ("b", 13))


def _raises(message):
    return pytest.raises(PacketError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("a", -1, "h.a must be non-negative, got -1"),
        ("b", 1 << 13, "h.b 0x2000 does not fit in 13 bits (max 0x1fff)"),
        ("zz", 1, "header 'h' has no field 'zz'"),
    ],
)
def test_header_errors_are_exact(field, value, message):
    with _raises(message):
        Header(SPEC, {field: value})
    header = Header(SPEC)
    with _raises(message):
        header[field] = value
    assert header.values() == {"a": 0, "b": 0}


@pytest.mark.parametrize(
    "values, message",
    [
        ({"a": -1}, "h.a must be non-negative, got -1"),
        ({"b": 1 << 13}, "h.b 0x2000 does not fit in 13 bits (max 0x1fff)"),
        ({"zz": 1, "a": 1}, "unknown fields for header 'h': ['zz']"),
    ],
)
def test_pack_errors_are_exact(values, message):
    with _raises(message):
        SPEC.pack(values)


def test_short_unpack_error_is_exact():
    with _raises("need 2 bytes to parse header 'h', got 1"):
        SPEC.unpack(b"\x00")
