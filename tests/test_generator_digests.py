"""generate writes the same corpus bytes for each acceptance scenario.

Every file generate writes (the capture, the ground truth, the analyze
config and the eight sidecar tables) is pinned by its sha256, so a reordered
list, a changed truth field or a changed frame shows here even where the
analyze bundle would not change. A deliberate change of the generator's
output records new digests here and says why in CHANGES.md.
"""

import hashlib

import pytest

# Scenario -> file generate writes -> sha256.
DIGESTS = {
    "industrial_stable": {
        "asn.txt": "8a30bf424fc59ebbb4e328cc5cb943310bee8fb3108762cb9c0e8c1ddb43730c",
        "cone.json": "d4dae665f6b1fc327c11397f0d0b6fba1b4c29760889b676f318e6d147aaffbe",
        "config.json": "522469647f8a5090df45b911122bc10ff760661a54e9eff1ae88e93aff2d5208",
        "corpus.pcap": "fd323efc607534c46e9baa65200f8a92d9b5329647cc8da261a8163c93fd3f9d",
        "geo.csv": "2dfb1120f438c95fec9aa820c8a1a70b7b2bcc36bb877d8223cc70dc0e28dda9",
        "ground_truth.jsonl": "0cb48af40167006cf4f3e8658b9c38ee03c31418c6c57a36ce2fc20e72345a3a",
        "hp_all.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "hp_ics.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rdns.csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "registry.json": "4f164929a659a837dce673dbc241cdabb5ea6d873c4b5891c9edc9a9fa59ff5c",
        "scan_snapshot.json": "db005f88969f6108b2ab44e3b6741280226d21bf3897047d11cbd209a5e172f5"
    },
    "scanner_sweep": {
        "asn.txt": "cde93e99bdf48195a7153e588c325023f7649c750217efb366da0238701bbcc5",
        "cone.json": "b03b1d358c83f9b00c8a928cc65caa9d226ad544e16d0b3a27bb9321bfd3fa4b",
        "config.json": "c5d8c7effdcead1131ad272f494912717c01a6c27c526163697f21be019001f9",
        "corpus.pcap": "36d0344bda8722391e470f475be9acf5d92e919f8c20b4e5abd3b4a93b658b5b",
        "geo.csv": "6464ed585cf78638737881276f349c9a2dab13a8af9861c3e32fe99b43d53f41",
        "ground_truth.jsonl": "983afd2b0ce893ef4bcc1072a6fa95864db03507f7afa8d8768f520a9c27fe60",
        "hp_all.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "hp_ics.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rdns.csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "registry.json": "2e78dcd1509cfdbf1d48cac34f2e4fabc5a794e0e4d733014c98ff65fb8df93f",
        "scan_snapshot.json": "95d0690f412a517ad1113d0749ca4d9623115e27661032e80ab50426e1cc407b"
    },
    "mixed": {
        "asn.txt": "d50c9b2a294f68af8e429bcaefe9eef5206a7d1af76ddae30c85bbb20cc5ecaa",
        "cone.json": "ceea092f695d185579d4b53dfc76d1a6691686a9891a47c2bfccef24eaa61ccd",
        "config.json": "22a061d360274a23916c2866776cf02be30229f7e5c6073dd94ede517faf2b4a",
        "corpus.pcap": "95ce982d8c463f5adb528ca684d2019a267513517ce832b1acb1012f36ebf82a",
        "geo.csv": "1a57ed765282132fa1a64e97f42d47e4df30d58f4aa821e647edf159a4e38c8e",
        "ground_truth.jsonl": "dbc133c4939ade5d7eb8d98a77f0c71415d2270b1d37552e2efdd393c6e609d9",
        "hp_all.txt": "604c78bf1ba96aca0d847701b40708b37ba63cfcf3abac9e84679fe4c7143a49",
        "hp_ics.txt": "7c36c23c00fc639a845e1d43b7f3444d7dd180436322288492bd235f8dc7b254",
        "rdns.csv": "4bfd849eeb1f8375e82c2343f322c8fdee21168fc2b0e9e12afa35115ef6db8f",
        "registry.json": "06492df3bc7ac96606f9847aeb738a9fb86da45f7b1e9f05618c9fb310b249eb",
        "scan_snapshot.json": "7a6cbb90870b4086a265863e113cf53a76b299e33f33b1b3cbec748aa782e488"
    }
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_generated_corpus_bytes_are_pinned(oracle_corpora, name):
    out_dir = oracle_corpora[name].out_dir
    assert {file: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
            for file in DIGESTS[name]} == DIGESTS[name]
