"""The golden packet corpus: one well-formed and one malformed reference
packet per protocol, built from the generator's own frame and payload
builders so that the generator and the tests cannot drift apart."""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

from ics_scope.dissectors import (
    BACNET,
    DNP3,
    ETHERNETIP,
    HARTIP,
    HEURISTIC,
    IEC104,
    MALFORMED,
    MODBUS,
    NORMAL,
    REPLY,
    REQUEST,
    S7COMM,
    WELL_FORMED,
)
from ics_scope.trafficgen import (
    bacnet_read_property,
    build_frame,
    dnp3_read_request,
    enip_list_identity_reply,
    hart_token_body,
    hartip_message,
    iec104_i_frame,
    malformed_payload,
    protocol_port,
    s7_setup_ack,
    write_pcap,
)


PROTOCOLS = (MODBUS, S7COMM, ETHERNETIP, BACNET, DNP3, HARTIP, IEC104)

# NOP, NOP, timestamp (TSval 1, TSecr 0): 12 option bytes, so the TCP golden
# packets that carry them have a data offset above 5 words.
TCP_TS_OPTIONS = b"\x01\x01\x08\x0a" + struct.pack(">II", 1, 0)

# Frame length (from link-layer start) at which each protocol's golden
# packet becomes identifiable; derived byte-wise against the golden corpus.
MIN_IDENTIFIABLE_FRAME_BYTES = {
    MODBUS: 74,
    S7COMM: 93,
    ETHERNETIP: 74,
    BACNET: 46,
    DNP3: 62,
    HARTIP: 78,
    IEC104: 76,
}


@dataclass(frozen=True)
class GoldenPacket:
    name: str
    protocol: str
    frame: bytes
    kind: str
    role: str
    function_code: int | None
    verdict: str


def modbus_exception_reply(function_code: int = 3, transaction_id: int = 1) -> bytes:
    body = bytes([1, function_code | 0x80, 0x02])
    return struct.pack(">HHH", transaction_id & 0xFFFF, 0, len(body)) + body


def golden_packets() -> list[GoldenPacket]:
    """One well-formed and one malformed reference packet per protocol.

    Layouts are pinned deliberately: transport choice and TCP option sizes
    give each well-formed packet exactly its registered identification
    floor under byte-wise truncation.
    """
    golden = [
        GoldenPacket(
            "modbus_wellformed", MODBUS,
            build_frame("198.18.1.10", "198.18.1.20", "tcp", 49152, 502,
                        bytes.fromhex("00010000000601030000000a"),
                        tcp_options=TCP_TS_OPTIONS),
            NORMAL, REQUEST, 3, WELL_FORMED,
        ),
        GoldenPacket(
            "s7comm_wellformed", S7COMM,
            build_frame("198.18.2.10", "198.18.2.20", "tcp", 34962, 8102,
                        s7_setup_ack(), tcp_options=TCP_TS_OPTIONS),
            HEURISTIC, REPLY, 0xF0, WELL_FORMED,
        ),
        GoldenPacket(
            "ethernetip_wellformed", ETHERNETIP,
            build_frame("198.18.3.10", "198.18.3.20", "udp", 44818, 51000,
                        enip_list_identity_reply()),
            NORMAL, REPLY, 0x63, WELL_FORMED,
        ),
        GoldenPacket(
            "bacnet_wellformed", BACNET,
            build_frame("198.18.4.10", "198.18.4.20", "udp", 47809, 47808,
                        bacnet_read_property()),
            NORMAL, REQUEST, 12, WELL_FORMED,
        ),
        GoldenPacket(
            "dnp3_wellformed", DNP3,
            build_frame("198.18.5.10", "198.18.5.20", "tcp", 49153, 20000,
                        dnp3_read_request()),
            NORMAL, REQUEST, 4, WELL_FORMED,
        ),
        GoldenPacket(
            "hartip_wellformed", HARTIP,
            build_frame("198.18.6.10", "198.18.6.20", "tcp", 50001, 5094,
                        hartip_message(0, 3, hart_token_body())),
            NORMAL, REQUEST, 3, WELL_FORMED,
        ),
        GoldenPacket(
            "iec104_wellformed", IEC104,
            build_frame("198.18.7.10", "198.18.7.20", "tcp", 50002, 2404,
                        iec104_i_frame(), tcp_options=TCP_TS_OPTIONS),
            NORMAL, REQUEST, 100, WELL_FORMED,
        ),
    ]
    rng = random.Random(7)
    for protocol, transport, src_octet in (
            (MODBUS, "tcp", 11), (S7COMM, "tcp", 12), (ETHERNETIP, "udp", 13),
            (BACNET, "udp", 14), (DNP3, "tcp", 15), (HARTIP, "tcp", 16), (IEC104, "tcp", 17)):
        payload, fc, role = malformed_payload(protocol, rng)
        golden.append(
            GoldenPacket(
                f"{protocol}_malformed", protocol,
                build_frame(f"198.18.{src_octet}.10", f"198.18.{src_octet}.20",
                            transport, 49200, protocol_port(protocol), payload),
                NORMAL, role, fc, MALFORMED,
            )
        )
    return golden


def write_golden_corpus(directory) -> Path:
    """One pcap file per golden packet plus the JSON manifest the tests consume."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    base_ts = 1_514_808_000_000_000  # 2018-01-01 12:00:00 UTC
    for index, packet in enumerate(golden_packets()):
        filename = f"{packet.name}.pcap"
        write_pcap(directory / filename, [(base_ts + index * 1_000_000, packet.frame)])
        manifest.append(
            {
                "file": filename,
                "protocol": packet.protocol,
                "verdict": packet.verdict,
                "role": packet.role,
                "function_code": packet.function_code,
                "kind": packet.kind,
            }
        )
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
