"""Three-step sanitization of ICS candidates with retention reporting.

Step 1 strips tunnel packets (dissections the dissector reached through an
ICMP error's quoted datagram), step 2 drops malformed dissections, step 3
cross-checks surviving payloads against a catalog of well-known non-ICS
protocol signatures. Every candidate receives exactly one verdict; the
cumulative per-step retention figures, overall and per vantage point, are
derived from counts of those verdicts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .capture import TCP, UDP, PacketRecord
from .dissectors import MALFORMED, Dissection
from .inputs import (ConfigError, choice, fault, known, load_packaged_json, parsed, read_json,
                     typed)
from .ports import PORTS, TRANSPORTS

KEPT = "kept"
DROPPED_TUNNEL = "dropped_tunnel"
DROPPED_MALFORMED = "dropped_malformed"
DROPPED_KNOWN_PROTOCOL = "dropped_known_protocol"

VERDICTS = (KEPT, DROPPED_TUNNEL, DROPPED_MALFORMED, DROPPED_KNOWN_PROTOCOL)
# The event counted for a record a naive port-only detector flags as ICS.
PORT_ONLY = "port_only"


def _check_dns_header(payload: bytes) -> bool:
    # Sane DNS fixed header: Z bits zero, opcode in the assigned range.
    if len(payload) < 12:
        return False
    if (payload[3] >> 4) & 0x07 != 0:
        return False
    return (payload[2] >> 3) & 0x0F <= 5


def _check_ntp_header(payload: bytes) -> bool:
    if len(payload) < 48:
        return False
    version = (payload[0] >> 3) & 0x07
    mode = payload[0] & 0x07
    return 1 <= version <= 4 and 1 <= mode <= 5


def _check_tls_record(payload: bytes) -> bool:
    # RFC 8446 5.1 forbids zero-length handshake fragments. Modbus/TCP with
    # transaction id 0x1603 shares the handshake prefix, but its bytes 3-4
    # (protocol id low byte, MBAP length high byte) always read zero.
    return len(payload) >= 5 and int.from_bytes(payload[3:5], "big") > 0


_STRUCTURAL_CHECKS = {
    "dns_header": _check_dns_header,
    "ntp_header": _check_ntp_header,
    "tls_record": _check_tls_record,
}


@dataclass(frozen=True)
class DpiSignature:
    name: str
    ip_proto: int | None = None
    port_hint: int | None = None
    prefix: bytes = b""
    mask: bytes = b""
    check: str | None = None

    def matches(self, src_port: int, dst_port: int, payload: bytes) -> bool:
        """Whether a payload matches; DpiCatalog's index picks its transport."""
        if self.port_hint is not None and self.port_hint not in (src_port, dst_port):
            return False
        if self.prefix:
            if len(payload) < len(self.prefix):
                return False
            for got, want, mask in zip(payload, self.prefix, self.mask):
                if got & mask != want & mask:
                    return False
        if self.check is not None:
            return _STRUCTURAL_CHECKS[self.check](payload)
        return bool(self.prefix)


_ENTRY_KEYS = ("name", "transport", "port_hint", "prefix_bytes", "mask", "check")


class DpiCatalog:
    """Data-driven catalog of non-ICS protocol fingerprints."""

    def __init__(self, signatures: list[DpiSignature]):
        self.signatures = list(signatures)
        # (TCP or UDP, first payload byte) -> the signatures that can match
        # such a payload, in catalog order; only non-empty buckets are kept.
        self._buckets: dict[tuple[int, int], list[DpiSignature]] = {}
        for sig in self.signatures:
            firsts = (range(256) if not sig.prefix else
                      [b for b in range(256) if b & sig.mask[0] == sig.prefix[0] & sig.mask[0]])
            for ip_proto in (TCP, UDP) if sig.ip_proto is None else (sig.ip_proto,):
                for first in firsts:
                    self._buckets.setdefault((ip_proto, first), []).append(sig)

    @classmethod
    def from_entries(cls, entries, source: str = "DPI catalog") -> "DpiCatalog":
        """Signatures from a JSON list of {name, transport, port_hint,
        prefix_bytes, mask, check} objects; name and one of prefix_bytes
        and check are required.

        Any other shape, another key included, raises ConfigError naming
        the source, the entry or signature and the key.
        """
        sigs = []
        for index, entry in enumerate(typed(entries, list, source)):
            where = f"{source} entry {index}"
            entry = typed(entry, dict, where)
            name = entry.get("name")
            # The name is what a match returns, so an empty one would never drop.
            if type(name) is not str or not name:
                raise fault(where, "name", "a non-empty string", name)
            where = f"{source} signature {name}"
            known(entry, _ENTRY_KEYS, where, "signature")
            prefix = parsed(bytes.fromhex, entry.get("prefix_bytes", ""), where, "prefix_bytes",
                            "a hex string")
            mask = parsed(bytes.fromhex, entry.get("mask", ""), where, "mask",
                          "a hex string") or b"\xff" * len(prefix)
            if len(mask) != len(prefix):
                raise ConfigError(f"{where}: mask/prefix length mismatch")
            check = entry.get("check")
            if check is not None:
                choice(check, _STRUCTURAL_CHECKS, where, "check")
            transport = entry.get("transport")
            if transport is not None:
                choice(transport, TRANSPORTS, where, "transport")
            port_hint = entry.get("port_hint")
            if port_hint is not None and (type(port_hint) is not int
                                          or not 0 <= port_hint <= 65535):
                raise fault(where, "port_hint", "a port number", port_hint)
            if not prefix and check is None:
                raise ConfigError(f"{where}: prefix_bytes or check must be given, "
                                  "or the signature never matches")
            sigs.append(
                DpiSignature(
                    name=name,
                    ip_proto=None if transport is None else TRANSPORTS[transport],
                    port_hint=port_hint,
                    prefix=prefix,
                    mask=mask,
                    check=check,
                )
            )
        return cls(sigs)

    @classmethod
    def from_json(cls, path) -> "DpiCatalog":
        return cls.from_entries(read_json(path), str(path))

    def match(self, record: PacketRecord) -> str | None:
        if not record.payload:
            return None
        for sig in self._buckets.get((record.ip_proto, record.payload[0]), ()):
            if sig.matches(record.src_port, record.dst_port, record.payload):
                return sig.name
        return None


@lru_cache(maxsize=1)
def default_catalog() -> DpiCatalog:
    return DpiCatalog.from_entries(load_packaged_json("dpi_catalog.json"))


def dpi_cross_check(record: PacketRecord, catalog: DpiCatalog) -> str:
    """Drop candidates whose payload fingerprints as a well-known protocol."""
    return DROPPED_KNOWN_PROTOCOL if catalog.match(record) else KEPT


def is_port_only(record: PacketRecord) -> bool:
    """Whether a naive port-only detector would flag the record as ICS: a
    TCP or UDP record with a port registered on either transport."""
    if record.ip_proto not in PORTS.by_transport:
        return False
    ports = PORTS.by_transport[record.ip_proto]
    return record.src_port in ports or record.dst_port in ports


def sanitize_candidate(record: PacketRecord, dissection: Dissection, catalog: DpiCatalog) -> str:
    """The verdict of the first step that drops the candidate, or KEPT:
    a dissection found inside an ICMP error's quoted datagram, then a
    malformed one, then a payload that fingerprints as a non-ICS protocol."""
    if dissection.via_icmp_quote:
        return DROPPED_TUNNEL
    if dissection.verdict == MALFORMED:
        return DROPPED_MALFORMED
    return dpi_cross_check(record, catalog)


def pct(numerator: int, denominator: int) -> float | None:
    """Percentage rounded to one decimal; None when the denominator is 0."""
    if denominator == 0:
        return None
    return round(100.0 * numerator / denominator, 1)


def _figures(events: Counter[str]) -> dict[str, int]:
    candidates_in = sum(events[verdict] for verdict in VERDICTS)
    after_tunnel = candidates_in - events[DROPPED_TUNNEL]
    return {
        "candidates_in": candidates_in,
        "after_tunnel": after_tunnel,
        "after_malformed": after_tunnel - events[DROPPED_MALFORMED],
        "after_dpi": events[KEPT],
        "port_only": events[PORT_ONLY],
    }


def retention(events: Counter[tuple[str, str]]) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Cumulative retention figures, overall and per vantage point.

    events counts (vantage, event) pairs, an event being a candidate's
    verdict or PORT_ONLY for a record the port-only baseline flags. A
    vantage has per-vantage figures exactly when it has a counted event.
    """
    total: Counter[str] = Counter()
    by_vantage: dict[str, Counter[str]] = {}
    for (vantage, event), n in events.items():
        total[event] += n
        by_vantage.setdefault(vantage, Counter())[event] += n
    return _figures(total), {v: _figures(c) for v, c in sorted(by_vantage.items())}


def sanitize_rows(figures: dict[str, int]) -> list[dict]:
    """Report rows of retention figures: step, remaining_count, remaining_pct.

    The steps are relative to the incoming candidates; the port-only
    baseline is relative to the sanitized count.
    """
    candidates_in = figures["candidates_in"]
    rows = [
        {"step": step, "remaining_count": figures[key],
         "remaining_pct": pct(figures[key], candidates_in)}
        for step, key in (("candidates", "candidates_in"), ("tunnel_removal", "after_tunnel"),
                          ("malformed_removal", "after_malformed"), ("dpi_removal", "after_dpi"))
    ]
    rows.append({"step": "port_only_baseline", "remaining_count": figures["port_only"],
                 "remaining_pct": pct(figures["port_only"], figures["after_dpi"])})
    return rows
