"""Registry of well-known ICS ports, loaded from packaged data files."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

# IP protocol numbers of the transport names the data files use.
TCP = 6
UDP = 17
TRANSPORTS = {"tcp": TCP, "udp": UDP}


def load_packaged_json(name: str):
    return json.loads(resources.files("ics_scope.data").joinpath(name).read_text())


class PortRegistry:
    """Maps (port, IP protocol) pairs to the protocol registered on them.

    The table format allows single ports or inclusive [low, high] ranges,
    keyed per transport name, e.g. {"bacnet": {"udp": [[47808, 47823]]}};
    the names are translated to IP protocol numbers once, here.
    """

    def __init__(self, table: dict):
        self._by_proto: dict[int, dict[int, str]] = {TCP: {}, UDP: {}}
        for protocol, transports in table.items():
            for transport, entries in transports.items():
                ports = self._by_proto[TRANSPORTS[transport]]
                for entry in entries:
                    if isinstance(entry, list):
                        lo, hi = entry
                        for port in range(lo, hi + 1):
                            ports[port] = protocol
                    else:
                        ports[int(entry)] = protocol
        self._all_ports = frozenset(self._by_proto[TCP]) | frozenset(self._by_proto[UDP])

    def protocol_for(self, port: int, ip_proto: int) -> str | None:
        return self._by_proto.get(ip_proto, {}).get(port)

    def is_ics_port(self, port: int) -> bool:
        """Port registered for any protocol on any transport (naive view)."""
        return port in self._all_ports

    def ports_for(self, protocol: str) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for transport, ip_proto in TRANSPORTS.items():
            ports = self._by_proto[ip_proto]
            matching = sorted(p for p, proto in ports.items() if proto == protocol)
            if matching:
                out[transport] = matching
        return out


@lru_cache(maxsize=1)
def default_registry() -> PortRegistry:
    return PortRegistry(load_packaged_json("ports.json"))


# The one port table the dissect path reads: the packaged ports.json.
PORTS = default_registry()
