import json

import pytest

from ics_scope.trafficgen import ScenarioSpec, generate

from golden import write_golden_corpus


@pytest.fixture(scope="session")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_golden_corpus(directory)
    return directory


@pytest.fixture(scope="session")
def golden_manifest(golden_dir):
    return json.loads((golden_dir / "manifest.json").read_text())


@pytest.fixture(scope="session")
def oracle_corpora(tmp_path_factory):
    """The three acceptance scenarios, generated once per session."""
    from test_acceptance import (
        _scenario_industrial_stable,
        _scenario_mixed,
        _scenario_scanner_sweep,
    )

    base = tmp_path_factory.mktemp("oracle")
    corpora = {}
    for name, raw in (
        ("industrial_stable", _scenario_industrial_stable()),
        ("scanner_sweep", _scenario_scanner_sweep()),
        ("mixed", _scenario_mixed()),
    ):
        corpora[name] = generate(ScenarioSpec.from_dict(raw), base / name)
    return corpora
