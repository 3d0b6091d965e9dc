from __future__ import annotations

import json
import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotgraph.apps import (
    _TOKEN,
    _map_key_for,
    AppBindError,
    AppParseError,
    bind_app,
    extract_phrases,
    parse_app_description,
    split_clauses,
    split_conjuncts,
)
from iotgraph.model import AppSpec, parse_config
from iotgraph.synth import APP_BUNDLES, synth_document

from conftest import FIXTURE_NAMES, SYNTH_HOMES, load_fixture_config

HALL_LIGHT = "Turn on the hall light if someone comes home and the door opens."


def test_clause_split_renders_expected_shape():
    sem = parse_app_description(HALL_LIGHT)
    assert sem.render_split() == (
        "conditional:  ('AND', ['someone comes home', 'the door opens'])\n"
        "main:  ('NONE', ['Turn on the hall light'])"
    )


def test_phrase_extraction_renders_expected_shape():
    sem = parse_app_description(HALL_LIGHT)
    assert sem.render_phrases() == (
        "conditional clause: [(['someone'], ['comes']), (['the door'], ['opens'])]\n"
        "main clause: [(['the hall light'], ['Turn on'])]"
    )


def test_semantic_tuple():
    sem = parse_app_description(HALL_LIGHT)
    assert sem.as_tuple() == (
        "AND",
        ["motion sensor", "door contact sensor"],
        ["motion", "open"],
        "NONE",
        ["bulb"],
        ["on"],
    )


def test_when_clause_splits_like_if():
    sem = parse_app_description("Open the window when smoke is detected.")
    assert sem.trigger_conn == "NONE"
    assert sem.actions[0].role == "window opener"
    assert sem.actions[0].state == "open"
    assert sem.triggers[0].role == "smoke detector"
    assert sem.triggers[0].display_event == "smoke"


def test_or_trigger_connective():
    sem = parse_app_description(
        "Turn on the hall light if someone comes home or the doorbell rings."
    )
    assert sem.trigger_conn == "OR"
    assert [t.role for t in sem.triggers] == ["motion sensor", "doorbell"]


def test_conjunct_splitter_keeps_simple_sentence_whole():
    conn, parts = split_conjuncts("the door opens")
    assert (conn, parts) == ("NONE", ["the door opens"])


def test_clause_splitter_requires_trigger():
    with pytest.raises(AppParseError):
        split_clauses("Turn on the hall light.")


def test_unknown_role_raises():
    with pytest.raises(AppParseError):
        parse_app_description("Calibrate the flux capacitor if someone comes home.")


def test_voice_trigger_extracts_command():
    sem = parse_app_description(
        "Preheat the oven when the speaker hears preheat the oven."
    )
    assert sem.triggers[0].role == "speaker"
    assert sem.triggers[0].command == "preheat the oven"
    assert sem.actions[0].role == "oven"
    assert sem.actions[0].state == "on"


@given(st.sampled_from([
    HALL_LIGHT,
    "Open the window when smoke is detected.",
    "Unlock the front door when the speaker hears unlock the front door.",
    "Turn on the heater when the temperature drops.",
]))
def test_parse_is_deterministic(description):
    first = parse_app_description(description).as_tuple()
    second = parse_app_description(description).as_tuple()
    assert first == second


@pytest.fixture(scope="module")
def hall_config():
    return parse_config(
        {
            "devices": [
                {"name": "Hue Wifi Bulb", "type": "bulb", "network": ["wifi1"]},
                {"name": "Ring Contact Sensor", "type": "contact-sensor", "network": ["zigbee1"]},
                {"name": "Mijia Motion Sensor", "type": "motion-sensor", "network": ["zigbee1"]},
            ],
            "networks": [
                {"name": "wifi1", "type": "Wifi"},
                {"name": "zigbee1", "type": "Zigbee"},
            ],
            "apps": [
                {
                    "App name": "Hall Light: Welcome Home",
                    "description": HALL_LIGHT,
                    "device map": {
                        "bulb": "Hue Wifi Bulb",
                        "contact sensor": "Ring Contact Sensor",
                        "motion sensor": "Mijia Motion Sensor",
                    },
                }
            ],
        },
        source="test",
    )


def test_bind_emits_ground_rule(hall_config):
    app = hall_config.apps[0]
    sem = parse_app_description(app.description)
    bound = bind_app(app, sem, hall_config)
    assert len(bound.rules) == 1
    assert bound.rules[0].render() == (
        "on(hueWifiBulb) :-\n"
        "    bulb(hueWifiBulb),\n"
        "    reportsMotion(mijiaMotionSensor),\n"
        "    motionSensor(mijiaMotionSensor),\n"
        "    open(ringContactSensor),\n"
        "    contactSensor(ringContactSensor)."
    )
    assert bound.voice_commands == ()


def test_bind_or_trigger_emits_one_rule_per_alternative(hall_config):
    app = AppSpec(
        name="Arrival Light",
        description="Turn on the hall light if someone comes home or the door opens.",
        device_map=(
            ("bulb", "Hue Wifi Bulb"),
            ("contact sensor", "Ring Contact Sensor"),
            ("motion sensor", "Mijia Motion Sensor"),
        ),
    )
    bound = bind_app(app, parse_app_description(app.description), hall_config)
    assert len(bound.rules) == 2
    heads = {r.head.render() for r in bound.rules}
    assert heads == {"on(hueWifiBulb)"}
    bodies = [len(r.body) for r in bound.rules]
    assert bodies == [3, 3]


def test_bind_and_trigger_multiple_actions():
    cfg = parse_config(
        {
            "devices": [
                {"name": "Porch Light", "type": "bulb", "network": ["wifi1"]},
                {"name": "Hall Heater", "type": "heater", "network": ["wifi1"]},
                {"name": "Door Sensor", "type": "contact-sensor", "network": ["wifi1"]},
                {"name": "Walk Sensor", "type": "motion-sensor", "network": ["wifi1"]},
            ],
            "networks": [{"name": "wifi1", "type": "Wifi"}],
        },
        source="test",
    )
    app = AppSpec(
        name="Arrival Comfort",
        description=(
            "Turn on the porch light and turn on the hall heater "
            "if someone comes home and the door opens."
        ),
        device_map=(
            ("bulb", "Porch Light"),
            ("heater", "Hall Heater"),
            ("contact sensor", "Door Sensor"),
            ("motion sensor", "Walk Sensor"),
        ),
    )
    bound = bind_app(app, parse_app_description(app.description), cfg)
    assert len(bound.rules) == 2
    assert {r.head.render() for r in bound.rules} == {"on(porchLight)", "on(hallHeater)"}
    for rule in bound.rules:
        event_atoms = [a for a in rule.body if a.pred in ("reportsMotion", "open")]
        assert len(event_atoms) == 2


def test_bind_missing_role_raises(hall_config):
    app = AppSpec(
        name="Broken",
        description=HALL_LIGHT,
        device_map=(("bulb", "Hue Wifi Bulb"),),
    )
    with pytest.raises(AppBindError):
        bind_app(app, parse_app_description(app.description), hall_config)


def test_bind_unknown_device_raises(hall_config):
    app = AppSpec(
        name="Broken",
        description=HALL_LIGHT,
        device_map=(
            ("bulb", "Ghost Bulb"),
            ("contact sensor", "Ring Contact Sensor"),
            ("motion sensor", "Mijia Motion Sensor"),
        ),
    )
    with pytest.raises(AppBindError):
        bind_app(app, parse_app_description(app.description), hall_config)


def test_bind_voice_app_collects_commands(hall_config):
    cfg = parse_config(
        {
            "devices": [
                {"name": "Smart Oven", "type": "oven", "network": ["wifi1"]},
                {"name": "Echo Speaker", "type": "speaker", "network": ["wifi1"]},
            ],
            "networks": [{"name": "wifi1", "type": "Wifi"}],
        },
        source="test",
    )
    app = AppSpec(
        name="Voice Preheat",
        description="Preheat the oven when the speaker hears preheat the oven.",
        device_map=(("oven", "Smart Oven"), ("speaker", "Echo Speaker")),
    )
    bound = bind_app(app, parse_app_description(app.description), cfg)
    assert bound.voice_commands == ("preheatTheOven",)
    assert bound.rules[0].head.render() == "on(smartOven)"
    assert "speakerHears(preheatTheOven)" in [a.render() for a in bound.rules[0].body]


# The matcher as it was before the lexicon and each sentence were keyed once:
# every role re-tokenizes the verb phrases and rebuilds its noun sets. Kept
# to check that the keyed matcher gives the same roles, events and states.
def _reference_score(nouns, np_sets):
    best = 0
    for alt in nouns:
        need = set(alt)
        if any(need <= tokens for tokens in np_sets):
            best = max(best, len(alt))
    return best


def _reference_verb(verbs, phrases):
    for vp in phrases.vps:
        key = " ".join(_TOKEN.findall(vp)).lower()
        if key in verbs:
            return verbs[key]
    return None


def reference_roles():
    """Each lexicon role as written in ``lexicon.json``, by side."""

    raw = json.loads(resources.files("iotgraph.data").joinpath("lexicon.json").read_text())
    return {
        side: [entry for entry in raw["roles"] if entry["side"] == side]
        for side in ("trigger", "action")
    }


def reference_parse(description):
    roles = reference_roles()
    split = split_clauses(description)
    trigger_conn, trigger_sentences = split_conjuncts(split.conditional)
    action_conn, action_sentences = split_conjuncts(split.main)
    triggers, events = [], []
    for sentence in trigger_sentences:
        phrases = extract_phrases(sentence)
        np_sets = [{t.lower() for t in _TOKEN.findall(np)} for np in phrases.nps]
        best = None
        for role in roles["trigger"]:
            score = _reference_score(role["nouns"], np_sets)
            if score > 0 and (best is None or score > best[0]):
                best = (score, role)
        role = best[1]
        triggers.append(role["role"])
        if role.get("voice"):
            m = re.search(r"\bhears?\b", sentence, re.I)
            events.append(f"hears {sentence[m.end():].strip(' .,').lower()}")
        else:
            verb = _reference_verb(role.get("verbs", {}), phrases)
            events.append(verb or role["default_event"])
    actions, states = [], []
    for sentence in action_sentences:
        phrases = extract_phrases(sentence)
        np_sets = [{t.lower() for t in _TOKEN.findall(np)} for np in phrases.nps]
        best = None
        for role in roles["action"]:
            state = _reference_verb(role.get("verbs", {}), phrases)
            if state is None:
                continue
            score = _reference_score(role["nouns"], np_sets)
            if score > 0 and (best is None or score > best[0]):
                best = (score, role, state)
        actions.append(best[1]["role"])
        states.append(best[2])
    return (trigger_conn, triggers, events, action_conn, actions, states)


def app_descriptions():
    """Every app description of the fixtures and of synthetic homes."""

    descriptions = [app.description for name in FIXTURE_NAMES for app in load_fixture_config(name).apps]
    descriptions += [description for _, description, _ in APP_BUNDLES]
    # Ties between roles of equal score, two-word verbs and unknown verbs.
    descriptions += [
        HALL_LIGHT,
        "Open the door when the door opens.",
        "Turn on the stove oven when the motion door opens.",
        "Turn off the light and shut off the water valve if the water leak sensor detects a leak.",
        "Switch on the plug when the light sensor falls or the heat rises.",
        "Start the air conditioner whenever the humidity sensor exceeds.",
        "Unlock the front door when the speaker hears unlock the front door.",
    ]
    for n, seed in SYNTH_HOMES:
        descriptions += [app["description"] for app in synth_document(n, seed)["apps"]]
    return sorted(set(descriptions))


@pytest.mark.parametrize("description", app_descriptions())
def test_keyed_matcher_matches_the_reference_matcher(description):
    assert parse_app_description(description).as_tuple() == reference_parse(description)


# The device map lookup as it was with two loops over the candidates: the
# longest key whose words the role holds, the first in map order among equals.
def _kept_map_key_for(role_display, device_map):
    if role_display in device_map:
        return role_display
    role_tokens = {t.lower() for t in _TOKEN.findall(role_display)}
    candidates = []
    for key in device_map:
        key_tokens = {t.lower() for t in _TOKEN.findall(key)}
        if key_tokens <= role_tokens:
            candidates.append((len(key_tokens), key))
    if not candidates:
        return None
    best_len = max(c[0] for c in candidates)
    for length, key in candidates:
        if length == best_len:
            return key
    return None


MAP_WORDS = st.sampled_from(["front", "door", "Door", "hall", "light", "sensor", "-", ""])


@given(
    role=st.lists(MAP_WORDS, max_size=4).map(" ".join),
    keys=st.lists(st.lists(MAP_WORDS, max_size=3).map(" ".join), max_size=5),
)
def test_map_key_for_matches_the_kept_lookup(role, keys):
    device_map = dict.fromkeys(keys, "Some Device")
    assert _map_key_for(role, device_map) == _kept_map_key_for(role, device_map)
