"""Padding makes the tables bigger and changes no answer."""

import filecmp
import json

import checker


def _prefixes(path):
    rows = []
    for line in path.read_text().splitlines():
        prefix = line.replace(",", " ").split()[0]
        net, plen = prefix.split("/")
        rows.append((net, int(plen)))
    return rows


def _lines(path):
    return set(path.read_text().split())


def test_padded_and_unpadded_bundles_are_identical(small_corpus, small_bundle, tmp_path):
    """Everything but run_summary.json, which names the capture files."""
    from ics_scope.pipeline import PipelineConfig, run_analyze

    unpadded = tmp_path / "unpadded"
    run_analyze(PipelineConfig.from_json(small_corpus / "gen" / "config.json"), unpadded)
    names = sorted(p.name for p in small_bundle.iterdir())
    assert names == sorted(p.name for p in unpadded.iterdir())
    compared = [n for n in names if n != "run_summary.json"]
    match, mismatch, errors = filecmp.cmpfiles(small_bundle, unpadded, compared, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert len(match) == len(compared) == 12


def test_padding_rules_hold(small_corpus):
    gen, padded = small_corpus / "gen", small_corpus / "input"
    endpoint_slash24 = {net for net, _ in _prefixes(gen / "asn.txt")}
    for table in ("asn.txt", "geo.csv"):
        original = set(_prefixes(gen / table))
        rows = _prefixes(padded / table)
        extra = set(rows) - original
        assert original <= set(rows) and len(extra) >= 2_000
        assert all(8 <= plen <= 24 for _, plen in extra)
        assert not {net for net, plen in extra if plen == 24} & endpoint_slash24
        assert len(rows) == len(set(rows)), "duplicate prefixes"

    endpoints = {p.src for p in checker.walk_pcap(gen / "corpus.pcap", "v", 1)}
    endpoints |= {p.dst for p in checker.walk_pcap(gen / "corpus.pcap", "v", 1)}
    for name in ("hp_all.txt", "hp_ics.txt"):
        extra = _lines(padded / name) - _lines(gen / name)
        assert extra and not extra & endpoints
    assert _lines(padded / "hp_ics.txt") <= _lines(padded / "hp_all.txt")
    rdns_extra = {row.split(",")[0] for row in _lines(padded / "rdns.csv") - _lines(gen / "rdns.csv")}
    assert rdns_extra and not rdns_extra & endpoints

    cone = json.loads((gen / "cone.json").read_text())
    padded_cone = json.loads((padded / "cone.json").read_text())
    generated = set(map(int, cone)) | {a for ases in cone.values() for a in ases}
    for member, ases in padded_cone.items():
        if member in cone:
            assert ases == cone[member]
        else:
            assert int(member) not in generated and not set(ases) & generated
