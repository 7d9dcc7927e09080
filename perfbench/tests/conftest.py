"""Shared fixtures: one small corpus laid out the way the benchmark lays out its own.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import padding  # noqa: E402
import workloads  # noqa: E402

SMALL_PADDING = padding.PadSizes(asn=2_000, geo=2_000, rdns=1_000, hp_all=1_000, hp_ics=200,
                                 cone_members=20, scan_hosts=500)


def small_scenario(seed: int) -> dict:
    """dirty_mix cut to one packet in twenty, so every flow kind stays present."""
    scenario = workloads.dirty_mix(seed)
    for flow in scenario["flows"]:
        schedule = flow["schedule"]
        schedule["packets_per_day"] = max(1, schedule["packets_per_day"] // 20)
        if flow["kind"] == "scanner_sweep":
            flow["dst"] = flow["dst"].rsplit("/", 1)[0] + "/28"
    return scenario


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory) -> Path:
    """Split into day-rotated captures, so the multi-capture path is covered too."""
    corpus_dir = tmp_path_factory.mktemp("bench") / "small"
    workloads.build(small_scenario(11), corpus_dir, SMALL_PADDING, split_by_day=True)
    return corpus_dir


@pytest.fixture(scope="session")
def small_bundle(small_corpus, tmp_path_factory) -> Path:
    from ics_scope.pipeline import PipelineConfig, run_analyze

    out = tmp_path_factory.mktemp("bundle")
    run_analyze(PipelineConfig.from_json(small_corpus / "input" / "config.json"), out)
    return out
