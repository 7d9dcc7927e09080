"""The bundle checker accepts a correct bundle and rejects any changed count."""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

import checker

ROOT = Path(__file__).resolve().parents[2]


def _reference(corpus: Path) -> checker.Reference:
    return checker.expected_bundle(corpus / "input" / "config.json",
                                   corpus / "gen" / "ground_truth.jsonl", corpus / "gen")


def test_clean_bundle_passes(small_corpus, small_bundle):
    assert checker.check_bundle(small_bundle, _reference(small_corpus)) == []


def _bumped(text: str) -> str | None:
    """The cell with its number moved by one displayed unit, or None if not a number."""
    try:
        if "." in text:
            decimals = len(text.split(".")[1])
            return f"{float(text) + 10 ** -decimals:.{decimals}f}"
        return str(int(text) + 1)
    except ValueError:
        return None


def _table_mutations(path: Path):
    delimiter = "\t" if path.suffix == ".tsv" else ","
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    for r, row in enumerate(rows[1:], start=1):
        for c, cell in enumerate(row):
            bumped = _bumped(cell)
            if bumped is None:
                continue
            changed = [list(x) for x in rows]
            changed[r][c] = bumped
            yield f"{path.name} row {r} col {c}", "".join(
                delimiter.join(x) + "\n" for x in changed)


def _json_leaves(value, trail=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, trail + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_leaves(item, trail + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield trail


def _json_mutations(path: Path):
    original = json.loads(path.read_text())
    for trail in _json_leaves(original):
        changed = json.loads(path.read_text())
        holder = changed
        for key in trail[:-1]:
            holder = holder[key]
        holder[trail[-1]] += 1
        yield f"{path.name} {'/'.join(map(str, trail))}", json.dumps(changed, indent=2)


def test_every_changed_count_is_caught(small_corpus, small_bundle, tmp_path):
    reference = _reference(small_corpus)
    bundle = tmp_path / "bundle"
    shutil.copytree(small_bundle, bundle)
    tried = 0
    for path in sorted(bundle.iterdir()):
        original = path.read_text()
        mutations = _json_mutations(path) if path.suffix == ".json" else _table_mutations(path)
        for where, text in mutations:
            path.write_text(text)
            assert checker.check_bundle(bundle, reference), f"change at {where} went unnoticed"
            tried += 1
        path.write_text(original)
    assert checker.check_bundle(bundle, reference) == []
    assert tried > 200


def test_properties_catch_broken_invariants(small_corpus, small_bundle, tmp_path):
    reference = _reference(small_corpus)
    bundle = tmp_path / "bundle"
    shutil.copytree(small_bundle, bundle)
    sanitize = json.loads((bundle / "sanitize.json").read_text())
    sanitize["steps"][2]["remaining_count"] = sanitize["steps"][0]["remaining_count"] + 1
    (bundle / "sanitize.json").write_text(json.dumps(sanitize))
    errors = checker.check_properties(bundle, reference.intervals)
    assert any("grow across steps" in e for e in errors)


def test_fails_when_a_file_is_missing(small_corpus, small_bundle, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(small_bundle, bundle)
    (bundle / "stability.csv").unlink()
    assert checker.check_bundle(bundle, _reference(small_corpus)) == ["stability.csv: missing"]


@pytest.mark.parametrize("name", ["industrial_stable", "scanner_sweep", "mixed"])
def test_passes_on_the_acceptance_scenarios(name, tmp_path):
    """The acceptance scenarios exactly as the test suite defines them."""
    sys.path.insert(0, str(ROOT / "tests"))
    acceptance = pytest.importorskip("test_acceptance")
    from ics_scope.pipeline import PipelineConfig, run_analyze
    from ics_scope.trafficgen import ScenarioSpec, generate

    raw = getattr(acceptance, f"_scenario_{name}")()
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path / "corpus")
    run_analyze(PipelineConfig.from_json(corpus.config), tmp_path / "bundle")
    reference = checker.expected_bundle(corpus.config, corpus.ground_truth, corpus.out_dir)
    assert checker.check_bundle(tmp_path / "bundle", reference) == []
