"""Three-step sanitization of ICS candidates with retention reporting.

Step 1 strips tunnel packets (dissections the dissector reached through an
ICMP error's quoted datagram), step 2 drops malformed dissections, step 3
cross-checks surviving payloads against a catalog of well-known non-ICS
protocol signatures. Every candidate receives exactly one verdict and the
report keeps cumulative per-step retention counts per vantage point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .capture import TCP, UDP, PacketRecord
from .dissectors import MALFORMED, Dissection
from .ports import PORTS, TRANSPORTS, load_packaged_json

KEPT = "kept"
DROPPED_TUNNEL = "dropped_tunnel"
DROPPED_MALFORMED = "dropped_malformed"
DROPPED_KNOWN_PROTOCOL = "dropped_known_protocol"

VERDICTS = (KEPT, DROPPED_TUNNEL, DROPPED_MALFORMED, DROPPED_KNOWN_PROTOCOL)


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

    def matches(self, ip_proto: int, src_port: int, dst_port: int, payload: bytes) -> bool:
        if self.ip_proto is not None and self.ip_proto != ip_proto:
            return False
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
        return bool(self.prefix) or self.check is not None


class DpiCatalog:
    """Data-driven catalog of non-ICS protocol fingerprints."""

    def __init__(self, signatures: list[DpiSignature]):
        self.signatures = list(signatures)

    @classmethod
    def from_entries(cls, entries: list[dict]) -> "DpiCatalog":
        sigs = []
        for entry in entries:
            prefix = bytes.fromhex(entry.get("prefix_bytes", ""))
            mask = bytes.fromhex(entry.get("mask", "")) or b"\xff" * len(prefix)
            if len(mask) != len(prefix):
                raise ValueError(f"signature {entry.get('name')}: mask/prefix length mismatch")
            check = entry.get("check")
            if check is not None and check not in _STRUCTURAL_CHECKS:
                raise ValueError(f"signature {entry.get('name')}: unknown check {check!r}")
            transport = entry.get("transport")
            if transport is not None and transport not in TRANSPORTS:
                raise ValueError(f"signature {entry.get('name')}: unknown transport {transport!r}")
            sigs.append(
                DpiSignature(
                    name=entry["name"],
                    ip_proto=None if transport is None else TRANSPORTS[transport],
                    port_hint=entry.get("port_hint"),
                    prefix=prefix,
                    mask=mask,
                    check=check,
                )
            )
        return cls(sigs)

    @classmethod
    def from_json(cls, path) -> "DpiCatalog":
        import json

        with open(path) as fh:
            return cls.from_entries(json.load(fh))

    def match(self, record: PacketRecord) -> str | None:
        if record.ip_proto not in (TCP, UDP) or not record.payload:
            return None
        for sig in self.signatures:
            if sig.matches(record.ip_proto, record.src_port, record.dst_port, record.payload):
                return sig.name
        return None


@lru_cache(maxsize=1)
def default_catalog() -> DpiCatalog:
    return DpiCatalog.from_entries(load_packaged_json("dpi_catalog.json"))


def strip_tunnels(dissection: Dissection) -> str:
    """Drop dissections found inside an ICMP error message's quoted datagram."""
    return DROPPED_TUNNEL if dissection.via_icmp_quote else KEPT


def drop_malformed(dissection: Dissection) -> str:
    return DROPPED_MALFORMED if dissection.verdict == MALFORMED else KEPT


def dpi_cross_check(record: PacketRecord, catalog: DpiCatalog | None = None) -> str:
    """Drop candidates whose payload fingerprints as a well-known protocol."""
    catalog = catalog or default_catalog()
    return DROPPED_KNOWN_PROTOCOL if catalog.match(record) else KEPT


def is_port_only(record: PacketRecord) -> bool:
    """Whether a naive port-only detector would flag the record as ICS."""
    return record.ip_proto in (TCP, UDP) and (
        PORTS.is_ics_port(record.src_port) or PORTS.is_ics_port(record.dst_port)
    )


@dataclass
class VantageCounts:
    candidates_in: int = 0
    after_tunnel: int = 0
    after_malformed: int = 0
    after_dpi: int = 0
    port_only: int = 0


@dataclass
class SanitizeReport:
    """Cumulative retention counts, overall and per vantage point."""

    per_vantage: dict[str, VantageCounts] = field(default_factory=dict)

    def _sum(self, attr: str) -> int:
        return sum(getattr(v, attr) for v in self.per_vantage.values())

    @property
    def candidates_in(self) -> int:
        return self._sum("candidates_in")

    @property
    def after_tunnel(self) -> int:
        return self._sum("after_tunnel")

    @property
    def after_malformed(self) -> int:
        return self._sum("after_malformed")

    @property
    def after_dpi(self) -> int:
        return self._sum("after_dpi")

    @property
    def port_only_count(self) -> int:
        return self._sum("port_only")

    def vantage(self, name: str) -> VantageCounts:
        return self.per_vantage.setdefault(name, VantageCounts())

    def pct(self, count: int) -> float | None:
        """Percentage of incoming candidates; None when there were none."""
        if self.candidates_in == 0:
            return None
        return round(100.0 * count / self.candidates_in, 1)

    @property
    def port_only_pct(self) -> float | None:
        """Naive port-based detection relative to the sanitized count."""
        if self.after_dpi == 0:
            return None
        return round(100.0 * self.port_only_count / self.after_dpi, 1)

    def merge(self, other: "SanitizeReport") -> "SanitizeReport":
        merged = SanitizeReport()
        for report in (self, other):
            for name, counts in report.per_vantage.items():
                mine = merged.vantage(name)
                mine.candidates_in += counts.candidates_in
                mine.after_tunnel += counts.after_tunnel
                mine.after_malformed += counts.after_malformed
                mine.after_dpi += counts.after_dpi
                mine.port_only += counts.port_only
        return merged

    def rows(self) -> list[dict]:
        """Report rows in fixed column order: step, remaining_count, remaining_pct."""
        return [
            {"step": "candidates", "remaining_count": self.candidates_in,
             "remaining_pct": self.pct(self.candidates_in)},
            {"step": "tunnel_removal", "remaining_count": self.after_tunnel,
             "remaining_pct": self.pct(self.after_tunnel)},
            {"step": "malformed_removal", "remaining_count": self.after_malformed,
             "remaining_pct": self.pct(self.after_malformed)},
            {"step": "dpi_removal", "remaining_count": self.after_dpi,
             "remaining_pct": self.pct(self.after_dpi)},
            {"step": "port_only_baseline", "remaining_count": self.port_only_count,
             "remaining_pct": self.port_only_pct},
        ]


@dataclass
class SanitizeResult:
    kept: list[tuple[PacketRecord, Dissection]]
    verdicts: list[str]
    report: SanitizeReport


def sanitize_candidate(
    record: PacketRecord,
    dissection: Dissection,
    catalog: DpiCatalog,
    report: SanitizeReport,
) -> str:
    """Apply the three steps in order to one candidate; counts it in report."""
    counts = report.vantage(record.vantage)
    counts.candidates_in += 1
    verdict = strip_tunnels(dissection)
    if verdict == KEPT:
        counts.after_tunnel += 1
        verdict = drop_malformed(dissection)
    if verdict == KEPT:
        counts.after_malformed += 1
        verdict = dpi_cross_check(record, catalog)
    if verdict == KEPT:
        counts.after_dpi += 1
    return verdict


def sanitize(pairs, catalog: DpiCatalog | None = None) -> SanitizeResult:
    """Sanitize (record, dissection) pairs; input order is preserved for survivors."""
    catalog = catalog or default_catalog()
    result = SanitizeResult(kept=[], verdicts=[], report=SanitizeReport())
    for record, dissection in pairs:
        verdict = sanitize_candidate(record, dissection, catalog, result.report)
        result.verdicts.append(verdict)
        if verdict == KEPT:
            result.kept.append((record, dissection))
    return result
