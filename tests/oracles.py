"""Reference predicates the tests check the program against."""

from __future__ import annotations


def is_local(
    src_asn: int | None,
    ingress_member: int | None,
    egress_member: int | None,
    dst_asn: int | None,
) -> bool | None:
    """Fabric-local traffic: source is the ingress member and destination the
    egress member. None when any AS is unresolved (excluded from ratios).

    enrich.transition must call exactly this traffic member_to_member.
    """
    if None in (src_asn, ingress_member, egress_member, dst_asn):
        return None
    return src_asn == ingress_member and dst_asn == egress_member
