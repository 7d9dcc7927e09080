"""Registry of well-known ICS ports, loaded from packaged data files."""

from __future__ import annotations

from .inputs import load_packaged_json

# IP protocol numbers of the transport names the data files use.
TCP = 6
UDP = 17
TRANSPORTS = {"tcp": TCP, "udp": UDP}


class PortRegistry:
    """Maps (port, IP protocol) pairs to the protocol registered on them.

    The table format allows single ports or inclusive [low, high] ranges,
    keyed per transport name, e.g. {"bacnet": {"udp": [[47808, 47823]]}};
    the names are translated to IP protocol numbers once, here.

    by_transport holds one dict per IP protocol. Its keys are every port
    registered on any transport, its values the protocol registered on that
    port on this transport, or None: one lookup answers both which dissector
    a port names (.get) and whether a naive port-only detector flags it (in).
    """

    def __init__(self, table: dict):
        registered: dict[int, dict[int, str]] = {TCP: {}, UDP: {}}
        for protocol, transports in table.items():
            for transport, entries in transports.items():
                ports = registered[TRANSPORTS[transport]]
                for entry in entries:
                    if isinstance(entry, list):
                        lo, hi = entry
                        for port in range(lo, hi + 1):
                            ports[port] = protocol
                    else:
                        ports[int(entry)] = protocol
        every = registered[TCP].keys() | registered[UDP].keys()
        self.by_transport: dict[int, dict[int, str | None]] = {
            ip_proto: {port: ports.get(port) for port in every}
            for ip_proto, ports in registered.items()
        }

    def ports_for(self, protocol: str) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for transport, ip_proto in TRANSPORTS.items():
            ports = self.by_transport[ip_proto]
            matching = sorted(p for p, proto in ports.items() if proto == protocol)
            if matching:
                out[transport] = matching
        return out


# The one port table: the packaged ports.json.
PORTS = PortRegistry(load_packaged_json("ports.json"))
