"""run_analyze writes the same bundle bytes on a fixed set of runs.

Each file of each bundle is pinned by its sha256. ``run_summary.json`` names
its captures by path, so it is hashed with those paths cut to file names.
A deliberate change of a report's bytes records new digests here and says
why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ics_scope.pipeline import PipelineConfig, run_analyze

from test_bundle_oracle import _split_captures, _variant

# Case name -> bundle file -> sha256. A case is an acceptance scenario, a
# "mixed:<filters>:<stability_label>" variant of mixed, or mixed-split: mixed
# split over vantages ixp1 and ixp2 plus an empty capture at vantage ixp3.
DIGESTS = {
    "industrial_stable": {
        "asn_protocols.csv": "d75dd70aef35b0e988dcb68e0223087cb4628617e6108573ef363751a64edf0a",
        "daily.tsv": "db3e07507b54fe0b4cb002a1855d178a262ed78ae46f53fbde2d48ecf842b378",
        "domestic.csv": "f50b79cca538133ea912490f311a8693f27dd9d0b3347c0c0201f172df06f5b6",
        "filters.csv": "4fb6b5cef18f22b5649d25e7b6c6c1fc88702315d6461246bf1cb09489b6483a",
        "filters.json": "a166602aab8309badecfbce61a229b7df8cf7e46eb10d8c609b1160e4f98bfd3",
        "protocol_rank.csv": "6b01c78a288b4a08018b32e4ab39820d06909046cd3318a46308170e793496a4",
        "run_summary.json": "4e2caf40af4e1d8a7cd99e3c1b76c1ac838de852c42d282ea86b49af165290e0",
        "sanitize.csv": "a06d333496f7885d762a10d1f9db65f6b1d2dd36f94a6260e95319c66c61483e",
        "sanitize.json": "1f3c20129ff105ee987deebaa5599ddea26e1c5be8eb27d40c8c83d6255d5a2a",
        "scan_overlap.csv": "067fe10a02e70e0e16381286d363452b21bbabcc7ba0d1680eb49020223b369a",
        "scan_overlap.json": "b3f0c929c2ffdb5ed52967c6b7d687eda38ceb091f6d44ea5ab5b505b81396c9",
        "stability.csv": "3e3beb7bf9bcf1bb0388bf8f4b44bee0d04b90fcc0d84437a643d3a21cc977e6",
        "transitions.csv": "9a282edd1cbeaf6b86a96fbb693d6272bfb569d9d42154d62a139d5964f6be01"
    },
    "scanner_sweep": {
        "asn_protocols.csv": "b72e0febb8a8914e27313c60710163a9581c944ba95550d2e278cacc7d8f8439",
        "daily.tsv": "c6932b2e6f934309f3479d2ca8948aff231a6b848e72ab294d98fc7f86953b04",
        "domestic.csv": "0d7e79453c1e85a84045ba6da0d1cb92fcc0d7c6c39a5e149b01b7bd2ccf1aaf",
        "filters.csv": "c1cce8f46400a6bdba342841f4df5fe71ff75174bceb2ad5929050bcaafd9d9f",
        "filters.json": "3cbafd2865886427b5799a5c1b11c4b7a6ed05159d1647a4cb3c40644b03ae13",
        "protocol_rank.csv": "6d81d63d0f318cea52951cbd4d756b340f4b86a35de80855c8381588cf935e61",
        "run_summary.json": "4f2ba80b5b399b885185558d2da7fda5ae5014b696666ed5580b9bbd6df4f240",
        "sanitize.csv": "d3fa0a520847ef1ba1b72207b613a4b22a44da7b9fa639c198041641a631e131",
        "sanitize.json": "4d1e8d06512f7bbb3084d13221c4f1306dc39f02fee0c1f846e844fdbad8686b",
        "scan_overlap.csv": "68caef2b2e0218435eb740ede5a6610d06a664be096f01f3ad8ea59f3aada6d7",
        "scan_overlap.json": "f1337a6a2d0826288526705c886e5ac0b960da97db12507869f08d12ab1a9bb7",
        "stability.csv": "afee1944410e47f5d175ab01a29573d5e7723eec3e93021e3e72f55e00e9923f",
        "transitions.csv": "4e9785a755853a0437be79b8313fd55fffc10fa3ff70085b80254d0c19e9c162"
    },
    "mixed": {
        "asn_protocols.csv": "2f08c1ba20e6734c3addebe21a1ba4cfef2239beca8d35098601d313658f3a39",
        "daily.tsv": "3b9cbb210b05c4f017a1ac29bd0a03aebb6b02140b8b00a52b2087602659d564",
        "domestic.csv": "ea2f5d2a73e9bea5f215ca88998561ba9cf857478b9b6bb422ec60fedb4b705b",
        "filters.csv": "3a57ca9906596912639f9c55a770b6d03722982dc7adb9e1cef893c67c4e65a9",
        "filters.json": "deafc36282e7c49a15210ff60deeaef614bf2c2f04d9410f756e1aa3d328f312",
        "protocol_rank.csv": "a0524ce80b63c00e4a1e82624a36689c1f16de1e3a0a2c18efc550a6ebfa21cb",
        "run_summary.json": "45a8a3cc7371b1228f93208878f2ccc0161ebc57783ee03598a1c6d2e1cb07fc",
        "sanitize.csv": "8f323913d33f3379d11767e1059624d81c0037a88e7666e8da17a060d143980e",
        "sanitize.json": "e65e09c7bda627ac540e7fbac9a74c96911e0c61cef5b261461491a4d03fec82",
        "scan_overlap.csv": "3b9946162d122af6521b81472a553149550dcb0d97b521f8ca0a2080c17434f0",
        "scan_overlap.json": "b48076da1fd1ebaa600c0248fb4bb056895a0ef7fe24d3bd571b3d41a2dc9a23",
        "stability.csv": "3551b2eb07862ab971e2ba8104856fe83a3c302d31d48632d9a12f2357aa2353",
        "transitions.csv": "2e3ffa18ead90625cf3f31b1b8a9fac2a5652ce0e85e5ea10e58c77b0ce2ec4b"
    },
    "mixed:scanners:all": {
        "asn_protocols.csv": "2f08c1ba20e6734c3addebe21a1ba4cfef2239beca8d35098601d313658f3a39",
        "daily.tsv": "41d3492927cec202a2045ea8fa14404201f0d1ae724edcc4285febf0da98edd6",
        "domestic.csv": "d36d739c4ea46cb63f696e1f5216e848eaf54296069732aa8d8ba7ce5a07a610",
        "filters.csv": "3a57ca9906596912639f9c55a770b6d03722982dc7adb9e1cef893c67c4e65a9",
        "filters.json": "deafc36282e7c49a15210ff60deeaef614bf2c2f04d9410f756e1aa3d328f312",
        "protocol_rank.csv": "a0524ce80b63c00e4a1e82624a36689c1f16de1e3a0a2c18efc550a6ebfa21cb",
        "run_summary.json": "e9ff63f0a59ff7fe4a04a03557ea546d23b068cf573fc33dd650bd36158b33bf",
        "sanitize.csv": "8f323913d33f3379d11767e1059624d81c0037a88e7666e8da17a060d143980e",
        "sanitize.json": "e65e09c7bda627ac540e7fbac9a74c96911e0c61cef5b261461491a4d03fec82",
        "scan_overlap.csv": "3b9946162d122af6521b81472a553149550dcb0d97b521f8ca0a2080c17434f0",
        "scan_overlap.json": "b48076da1fd1ebaa600c0248fb4bb056895a0ef7fe24d3bd571b3d41a2dc9a23",
        "stability.csv": "6fdf891f672285966e954e75b617459f2a0f1f669bd26cbc6798ddaeeb40f193",
        "transitions.csv": "f847bdbbce202cbf78b188ba537163a4ee00fe9babb9f5ececc9045110466f8a"
    },
    "mixed:hp-ics:non_industrial": {
        "asn_protocols.csv": "2f08c1ba20e6734c3addebe21a1ba4cfef2239beca8d35098601d313658f3a39",
        "daily.tsv": "9c8a79e6d04d2c215ad182569cd874b95427a641b11835ad9a20a64b7ccc3154",
        "domestic.csv": "d1b8c7b441a4ac2a1f3da2d859fc46c9a6dc48aff2c1560dce5205718dd3f03f",
        "filters.csv": "3a57ca9906596912639f9c55a770b6d03722982dc7adb9e1cef893c67c4e65a9",
        "filters.json": "deafc36282e7c49a15210ff60deeaef614bf2c2f04d9410f756e1aa3d328f312",
        "protocol_rank.csv": "a0524ce80b63c00e4a1e82624a36689c1f16de1e3a0a2c18efc550a6ebfa21cb",
        "run_summary.json": "0933473ebed318894209ae6a5e3264c66f338698d9662f54750d629333e75970",
        "sanitize.csv": "8f323913d33f3379d11767e1059624d81c0037a88e7666e8da17a060d143980e",
        "sanitize.json": "e65e09c7bda627ac540e7fbac9a74c96911e0c61cef5b261461491a4d03fec82",
        "scan_overlap.csv": "3b9946162d122af6521b81472a553149550dcb0d97b521f8ca0a2080c17434f0",
        "scan_overlap.json": "b48076da1fd1ebaa600c0248fb4bb056895a0ef7fe24d3bd571b3d41a2dc9a23",
        "stability.csv": "c6d8d2da3d4722d5bfc99b418062f4ac827f8aca616342d2d510fc657a0a6fd5",
        "transitions.csv": "9804712491eabac0f742205bfaacaafbb397b3213fb6be93b955953b7ef4e0fc"
    },
    "mixed-split": {
        "asn_protocols.csv": "2f08c1ba20e6734c3addebe21a1ba4cfef2239beca8d35098601d313658f3a39",
        "daily.tsv": "a4c86ab6038a1aba5f8184bd6f10fe9d3403331721214c54cc7bf49cb70ae1bd",
        "domestic.csv": "ea2f5d2a73e9bea5f215ca88998561ba9cf857478b9b6bb422ec60fedb4b705b",
        "filters.csv": "3a57ca9906596912639f9c55a770b6d03722982dc7adb9e1cef893c67c4e65a9",
        "filters.json": "deafc36282e7c49a15210ff60deeaef614bf2c2f04d9410f756e1aa3d328f312",
        "protocol_rank.csv": "a0524ce80b63c00e4a1e82624a36689c1f16de1e3a0a2c18efc550a6ebfa21cb",
        "run_summary.json": "dc9da251be2f63a46dae45c4be26be4d680e334755bee00d2196e13941e2f1c4",
        "sanitize.csv": "8f323913d33f3379d11767e1059624d81c0037a88e7666e8da17a060d143980e",
        "sanitize.json": "3b5dd1795844ec20887bc2796938e4f54962cd0b23cc65cb6c467f3fd552d598",
        "scan_overlap.csv": "3b9946162d122af6521b81472a553149550dcb0d97b521f8ca0a2080c17434f0",
        "scan_overlap.json": "b48076da1fd1ebaa600c0248fb4bb056895a0ef7fe24d3bd571b3d41a2dc9a23",
        "stability.csv": "3551b2eb07862ab971e2ba8104856fe83a3c302d31d48632d9a12f2357aa2353",
        "transitions.csv": "2e3ffa18ead90625cf3f31b1b8a9fac2a5652ce0e85e5ea10e58c77b0ce2ec4b"
    }
}


def _config(name: str, corpora) -> Path:
    if name in corpora:
        return corpora[name].config
    mixed = corpora["mixed"]
    if name == "mixed-split":
        (mixed.out_dir / "empty.pcap").write_bytes(mixed.pcap.read_bytes()[:24])
        template = json.loads(mixed.config.read_text())["captures"][0]
        return _variant(mixed, "digest-split", captures=_split_captures(mixed) + [
            {**template, "path": "empty.pcap", "vantage": "ixp3"},
        ])
    _, family, label = name.split(":")
    return _variant(mixed, f"digest-{family}-{label}", filters=family, stability_label=label)


def _digests(bundle: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(bundle.iterdir()):
        data = path.read_bytes()
        if path.name == "run_summary.json":
            for capture in json.loads(data)["captures"]:
                data = data.replace(json.dumps(capture["path"]).encode(),
                                    json.dumps(Path(capture["path"]).name).encode())
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundle_bytes_are_pinned(oracle_corpora, tmp_path, name):
    run_analyze(PipelineConfig.from_json(_config(name, oracle_corpora)), tmp_path)
    assert _digests(tmp_path) == DIGESTS[name]
