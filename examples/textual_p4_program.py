#!/usr/bin/env python3
"""Writing the data plane — and its validation — as P4-like source text.

The paper's framework is "fully programmable through P4". This example
uses the textual frontend end to end: the DUT program is parsed from
source, compiled onto the SDNet-like target, and validated by NetDebug
with the reference oracle. The same source also runs on the faithful
target to isolate where any divergence comes from.

Run:  python examples/textual_p4_program.py
"""

from repro.netdebug import (
    NetDebugController,
    StatelessOracle,
    StreamSpec,
    ValidationSession,
)
from repro.p4 import parse_program
from repro.packet import ipv4, mac
from repro.sim.traffic import default_flow, malformed_mix
from repro.target import make_reference_device, make_sdnet_device

SOURCE = """
# guarded_forwarder.p4t — accept only well-formed IPv4, then forward
# by destination prefix; everything else must die in the parser.

header ethernet;
header ipv4;

parser start {
    extract(ethernet);
    select (ethernet.ether_type) {
        0x0800: parse_ipv4;
        default: reject;
    }
}
parser parse_ipv4 {
    extract(ipv4);
    verify(ipv4.version == 4 and ipv4.ihl >= 5, 3);
    goto accept;
}

action route(next_hop: 48, port: 9) {
    set(ethernet.dst_addr, next_hop);
    set(ipv4.ttl, ipv4.ttl - 1);
    forward(port);
}
action drop_all() { drop(); }

table prefixes {
    key: ipv4.dst_addr lpm;
    actions: route, drop_all;
    default: drop_all;
    size: 128;
}

control ingress {
    # valid() guards matter: on a buggy target, parser-rejected packets
    # reach this control WITHOUT an ipv4 header.
    if (valid(ipv4) and ipv4.ttl <= 1) { call(drop_all); }
    else {
        if (valid(ipv4)) { apply(prefixes); }
        else { call(drop_all); }
    }
}

deparser { emit(ethernet); emit(ipv4); }
"""


def validate_on(device_factory, label: str):
    device = device_factory(label)
    program = parse_program(SOURCE, name="guarded_forwarder")
    device.load(program)
    device.control_plane.table_add(
        "prefixes", "route", [(ipv4("10.0.0.0"), 8)],
        [mac("aa:bb:cc:dd:ee:01"), 1],
    )
    workload = [
        packet for packet, _ in malformed_mix(default_flow(), 30, 0.4, 42)
    ]
    report = NetDebugController(device).run(
        ValidationSession(
            name=f"text-validation-{label}",
            streams=[
                StreamSpec(stream_id=1, packets=workload,
                           fix_checksums=False)
            ],
            oracle_factory=StatelessOracle,
        )
    )
    return report


def main() -> None:
    print("program source: 50 lines of P4-like text, parsed at runtime\n")

    reference = validate_on(make_reference_device, "ref")
    print(f"reference target : "
          f"{'PASS' if reference.passed else 'FAIL'} "
          f"({len(reference.findings)} findings)")

    sdnet = validate_on(make_sdnet_device, "sume")
    leaks = sdnet.findings_of("unexpected_output")
    print(f"SDNet-like target: "
          f"{'PASS' if sdnet.passed else 'FAIL'} "
          f"({len(leaks)} packets forwarded that the source says to drop)")

    assert reference.passed and not sdnet.passed
    print("\nsame source, same table entries, same workload — the")
    print("difference is the backend. Textual P4 programs plug straight")
    print("into the whole validation pipeline.")


if __name__ == "__main__":
    main()
