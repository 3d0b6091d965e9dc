"""Answers do not depend on the order of a home's entries.

Shuffling a configuration's ``devices``, ``networks`` and ``apps``, and the
attacker's ``radio_adjacent`` and ``physical_access`` lists, leaves
``attack_graph.json``, ``attack_graph.dot`` and ``metrics_report.txt`` byte
for byte as they were, on the five fixtures and on a synthetic home. So
that both attacker lists have entries to shuffle, each home's attacker is
written out: radio adjacency as parsed (the configured list, or every
wireless network), and physical access to every other device, up to four.

Other outputs follow input order by design, so they are not compared:
``program.pl`` prints the facts in configuration order, and the manifest's
``apps_bound`` lists the bound apps in app order. Goals are not shuffled:
their order sets the order of every goal's output.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotgraph.model import parse_config
from iotgraph.pipeline import analyze, write_outputs
from iotgraph.synth import synth_document

from conftest import FIXTURE_NAMES, FIXTURES

ANSWERS = ("attack_graph.json", "attack_graph.dot", "metrics_report.txt")
HOMES = (*FIXTURE_NAMES, "synth80-3")


def _home(name: str) -> dict:
    if name == "synth80-3":
        doc = synth_document(80, 3)
    else:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
    config = parse_config(doc, source=name)
    networks = {n.atom: n.name for n in config.networks}
    doc["attacker"] = {
        **doc.get("attacker", {}),
        "radio_adjacent": [networks[atom] for atom in config.attacker.radio_adjacent],
        "physical_access": [d["name"] for d in doc["devices"][::2][:4]],
    }
    return doc


def _answers(doc: dict, store) -> dict[str, bytes]:
    result = analyze(parse_config(doc, source="shuffled"), store)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(result, tmp)
        return {name: (Path(tmp) / name).read_bytes() for name in ANSWERS}


@pytest.fixture(scope="module")
def unshuffled(store) -> dict[str, tuple[dict, dict[str, bytes]]]:
    homes = {name: _home(name) for name in HOMES}
    return {name: (doc, _answers(doc, store)) for name, doc in homes.items()}


@settings(max_examples=30, deadline=None)
@given(home=st.sampled_from(HOMES), data=st.data())
def test_answers_do_not_depend_on_entry_order(store, unshuffled, home, data):
    doc, expected = unshuffled[home]
    shuffled = copy.deepcopy(doc)
    attacker = shuffled["attacker"]
    for holder, key in (
        (shuffled, "devices"),
        (shuffled, "networks"),
        (shuffled, "apps"),
        (attacker, "radio_adjacent"),
        (attacker, "physical_access"),
    ):
        if key in holder:
            holder[key] = data.draw(st.permutations(holder[key]), label=key)
    got = _answers(shuffled, store)
    assert [name for name in ANSWERS if got[name] != expected[name]] == []
