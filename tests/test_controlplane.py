"""Control-plane runtime API tests."""

import pytest

from repro.controlplane import RuntimeAPI
from repro.exceptions import ControlPlaneError
from repro.p4.interpreter import RuntimeState
from repro.p4.stdlib import acl_firewall, ipv4_router, port_counter
from repro.packet.headers import ipv4, mac


def api_for(program):
    return program, RuntimeAPI(program, RuntimeState.for_program(program))


class TestTableAdd:
    def test_lpm_pair(self):
        program, api = api_for(ipv4_router())
        entry = api.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)], [1, 2]
        )
        assert entry in program.table("ipv4_lpm").entries
        assert entry.patterns[0].prefix_len == 8

    def test_exact_requires_int(self):
        program, api = api_for(acl_firewall())
        with pytest.raises(ControlPlaneError, match="exact"):
            api.table_add("fwd", "forward", [(1, 2)], [1])

    def test_lpm_requires_pair(self):
        _, api = api_for(ipv4_router())
        with pytest.raises(ControlPlaneError, match="LPM"):
            api.table_add("ipv4_lpm", "route", [5], [1, 2])

    def test_ternary_requires_pair(self):
        _, api = api_for(acl_firewall())
        with pytest.raises(ControlPlaneError, match="ternary"):
            api.table_add(
                "acl", "deny", [1, (0, 0), (0, 0), (0, 0), (0, 0)], []
            )

    def test_key_arity_checked(self):
        _, api = api_for(ipv4_router())
        with pytest.raises(ControlPlaneError, match="keys"):
            api.table_add("ipv4_lpm", "route", [], [1, 2])

    def test_unknown_table(self):
        _, api = api_for(ipv4_router())
        with pytest.raises(Exception):
            api.table_add("ghost", "route", [(0, 0)], [])

    def test_range_validation(self):
        from repro.netdebug.usecases.compiler_check import (
            range_match_program,
        )

        program = range_match_program()
        api = RuntimeAPI(program, RuntimeState.for_program(program))
        api.table_add("port_ranges", "to_cpu", [(10, 20)], [])
        with pytest.raises(ControlPlaneError, match="low"):
            api.table_add("port_ranges", "to_cpu", [(20, 10)], [])


class TestPatternsFitTheKey:
    """Every value, mask and bound must fit the key's width and a prefix
    length must lie in ``[0, width]``; the refusal names the table, the
    key and the value."""

    @pytest.mark.parametrize("prefix_len", [40, 33, -3])
    def test_lpm_prefix_length_outside_width(self, prefix_len):
        program, api = api_for(ipv4_router())
        with pytest.raises(
            ControlPlaneError,
            match=rf"^table 'ipv4_lpm' key 'dst_ip': prefix length "
                  rf"{prefix_len} outside \[0, 32\]$",
        ):
            api.table_add(
                "ipv4_lpm", "route", [(ipv4("10.0.0.0"), prefix_len)], [1, 2]
            )
        assert program.table("ipv4_lpm").entries == []

    @pytest.mark.parametrize("prefix_len", [0, 32])
    def test_lpm_prefix_length_bounds_accepted(self, prefix_len):
        program, api = api_for(ipv4_router())
        api.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), prefix_len)], [1, 2]
        )
        assert len(program.table("ipv4_lpm").entries) == 1

    def test_value_wider_than_key(self):
        _, api = api_for(ipv4_router())
        with pytest.raises(
            ControlPlaneError,
            match=r"^table 'ipv4_lpm' key 'dst_ip': value 4294967296 "
                  r"does not fit 32 bits$",
        ):
            api.table_add("ipv4_lpm", "route", [(1 << 32, 8)], [1, 2])

    def test_exact_value_outside_width(self):
        _, api = api_for(acl_firewall())
        with pytest.raises(ControlPlaneError, match="'fwd' key 'dst_mac'"):
            api.table_add("fwd", "forward", [1 << 48], [1])
        with pytest.raises(ControlPlaneError, match="value -1 does not fit"):
            api.table_add("fwd", "forward", [-1], [1])

    def test_ternary_mask_outside_width(self):
        _, api = api_for(acl_firewall())
        with pytest.raises(
            ControlPlaneError,
            match=r"^table 'acl' key 'proto': mask 256 does not fit 8 bits$",
        ):
            api.table_add(
                "acl", "deny",
                [(0, 0), (0, 0), (6, 0x100), (0, 0), (0, 0)], [],
            )

    def test_range_bound_outside_width(self):
        from repro.netdebug.usecases.compiler_check import (
            range_match_program,
        )

        program = range_match_program()
        api = RuntimeAPI(program, RuntimeState.for_program(program))
        with pytest.raises(ControlPlaneError, match="high bound 65536"):
            api.table_add("port_ranges", "to_cpu", [(10, 1 << 16)], [])
        with pytest.raises(ControlPlaneError, match="low bound -1"):
            api.table_add("port_ranges", "to_cpu", [(-1, 10)], [])


class TestTableManagement:
    def test_delete_and_clear(self):
        program, api = api_for(ipv4_router())
        entry = api.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)], [1, 2]
        )
        api.table_delete("ipv4_lpm", entry)
        assert api.table_entries("ipv4_lpm") == []
        api.table_add("ipv4_lpm", "route", [(0, 0)], [1, 2])
        api.table_clear("ipv4_lpm")
        assert api.table_entries("ipv4_lpm") == []

    def test_occupancy(self):
        program, api = api_for(ipv4_router())
        api.table_add("ipv4_lpm", "route", [(0, 0)], [1, 2])
        occupancy = api.table_occupancy()
        assert occupancy["ipv4_lpm"] == (1, 512)

    def test_set_default_action(self):
        program, api = api_for(ipv4_router())
        api.set_default_action("ipv4_lpm", "route", (5, 3))
        table = program.table("ipv4_lpm")
        assert table.default_action == "route"
        assert table.default_action_data == (5, 3)

    def test_set_default_unknown_action(self):
        _, api = api_for(ipv4_router())
        with pytest.raises(ControlPlaneError):
            api.set_default_action("ipv4_lpm", "ghost")

    def test_set_default_bad_arity(self):
        _, api = api_for(ipv4_router())
        with pytest.raises(Exception):
            api.set_default_action("ipv4_lpm", "route", (1,))


class TestStatefulObjects:
    def test_counter_read_reset(self):
        program, api = api_for(port_counter(num_ports=4))
        state = api._state
        state.counters["per_port_pkts"][1] = 7
        assert api.counter_read("per_port_pkts", 1) == 7
        api.counter_reset("per_port_pkts")
        assert api.counter_read("per_port_pkts", 1) == 0

    def test_counter_errors(self):
        _, api = api_for(port_counter(num_ports=4))
        with pytest.raises(ControlPlaneError):
            api.counter_read("ghost")
        with pytest.raises(ControlPlaneError):
            api.counter_read("per_port_pkts", 99)
        with pytest.raises(ControlPlaneError):
            api.counter_reset("ghost")

    def test_register_read_write(self):
        _, api = api_for(port_counter(num_ports=4))
        api.register_write("last_len", 2, 0xABCD)
        assert api.register_read("last_len", 2) == 0xABCD

    def test_register_errors(self):
        _, api = api_for(port_counter(num_ports=4))
        with pytest.raises(ControlPlaneError):
            api.register_read("ghost")
        with pytest.raises(ControlPlaneError):
            api.register_read("last_len", 99)
        with pytest.raises(ControlPlaneError):
            api.register_write("last_len", 0, 1 << 20)  # too wide
        with pytest.raises(ControlPlaneError):
            api.register_write("last_len", 99, 1)
        with pytest.raises(ControlPlaneError):
            api.register_write("ghost", 0, 1)
