from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotgraph.logic import Atom
from iotgraph.model import (
    DEVICE_TYPES,
    ConfigError,
    DeviceSpec,
    NetworkSpec,
    SystemConfig,
    normalize_name,
    parse_config,
)


def minimal_doc() -> dict:
    return {
        "devices": [
            {"name": "D-Link Router", "type": "router", "network": ["wifi1"]},
            {"name": "Smartthings Hub", "type": "gateway", "network": ["wifi1", "zigbee1"]},
        ],
        "networks": [
            {"name": "wifi1", "type": "Wifi"},
            {"name": "zigbee1", "type": "Zigbee"},
        ],
    }


def test_normalize_name_examples():
    assert normalize_name("D-Link Router") == "dLinkRouter"
    assert normalize_name("Smartthings Hub") == "smartthingsHub"
    assert normalize_name("wifi1") == "wifi1"
    assert normalize_name("Hue Wifi Bulb") == "hueWifiBulb"


def test_normalize_name_rejects_empty_and_digit_start():
    with pytest.raises(ConfigError):
        normalize_name("   ")
    with pytest.raises(ConfigError):
        normalize_name("42nd Sensor")


@given(st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,6}( [A-Za-z][A-Za-z0-9]{0,6}){0,3}", fullmatch=True))
def test_normalize_name_produces_valid_atoms(name):
    atom = normalize_name(name)
    assert atom[0].islower() or atom[0].isdigit() is False
    assert " " not in atom and "-" not in atom


def test_parse_config_basic_shape():
    cfg = parse_config(minimal_doc(), source="test")
    assert [d.atom for d in cfg.devices] == ["dLinkRouter", "smartthingsHub"]
    assert [n.atom for n in cfg.networks] == ["wifi1", "zigbee1"]
    router = cfg.device("dLinkRouter")
    assert router.device_type == "router"
    assert router.networks == ("wifi1",)
    hub = cfg.device("Smartthings Hub")
    assert hub.networks == ("wifi1", "zigbee1")


def first_by_scan(specs, key):
    """The lookup by atom or name that configurations made before they had indexes."""

    for spec in specs:
        if key in (spec.atom, spec.name):
            return spec
    return None


def test_device_index_returns_what_device_returns():
    # Built directly, so keys collide: "b" is the first device's atom and the
    # second device's name; "c" is the second's atom and the third's name.
    # The networks collide the same way.
    cfg = SystemConfig(
        devices=(
            DeviceSpec(name="a", atom="b", device_type="router"),
            DeviceSpec(name="b", atom="c", device_type="gateway"),
            DeviceSpec(name="c", atom="d", device_type="camera"),
        ),
        networks=(
            NetworkSpec(name="n", atom="m", protocol="wifi"),
            NetworkSpec(name="m", atom="k", protocol="zigbee"),
        ),
    )
    for specs, index in ((cfg.devices, cfg.device_index()), (cfg.networks, cfg.network_index())):
        assert set(index) == {s.atom for s in specs} | {s.name for s in specs}
        for key, spec in index.items():
            assert spec is first_by_scan(specs, key), key
        for unknown in ("zz", "", "B"):
            assert first_by_scan(specs, unknown) is None and unknown not in index
    for key, spec in cfg.device_index().items():
        assert cfg.device(key) is spec
    for unknown in ("zz", "", "B"):
        with pytest.raises(ConfigError):
            cfg.device(unknown)


def test_config_indexes_are_not_compared():
    doc = minimal_doc()
    assert parse_config(doc) == parse_config(doc)
    assert hash(parse_config(doc)) == hash(parse_config(doc))
    assert "_by_key" not in repr(parse_config(doc))


def test_parse_config_network_protocols():
    cfg = parse_config(minimal_doc(), source="test")
    networks = cfg.network_index()
    assert networks["wifi1"].protocol == "wifi"
    assert networks["zigbee1"].protocol == "zigbee"


def test_parse_config_accepts_json_text():
    import json

    cfg = parse_config(json.dumps(minimal_doc()), source="inline")
    assert len(cfg.devices) == 2


def test_attacker_defaults():
    cfg = parse_config(minimal_doc(), source="test")
    assert cfg.attacker.has_internet
    assert cfg.attacker.radio_adjacent == ("wifi1", "zigbee1")
    assert cfg.attacker.physical_access == ()


def test_attacker_defaults_skip_ethernet():
    doc = minimal_doc()
    doc["networks"].append({"name": "lan1", "type": "Ethernet"})
    doc["devices"][0]["network"] = ["wifi1", "lan1"]
    cfg = parse_config(doc, source="test")
    assert "lan1" not in cfg.attacker.radio_adjacent


def test_attacker_explicit_block():
    doc = minimal_doc()
    doc["attacker"] = {"has_internet": False, "radio_adjacent": ["wifi1"], "physical_access": []}
    cfg = parse_config(doc, source="test")
    assert not cfg.attacker.has_internet
    assert cfg.attacker.radio_adjacent == ("wifi1",)


def test_physically_exposed_feeds_attacker_default():
    doc = minimal_doc()
    doc["devices"][0]["physically_exposed"] = True
    cfg = parse_config(doc, source="test")
    assert cfg.attacker.physical_access == ("dLinkRouter",)


def test_unknown_device_type_rejected():
    doc = minimal_doc()
    doc["devices"][0]["type"] = "toaster"
    with pytest.raises(ConfigError, match="toaster"):
        parse_config(doc, source="test")


def test_unknown_network_reference_rejected():
    doc = minimal_doc()
    doc["devices"][0]["network"] = ["wifi9"]
    with pytest.raises(ConfigError, match="wifi9"):
        parse_config(doc, source="test")


def test_duplicate_names_rejected():
    doc = minimal_doc()
    doc["devices"].append({"name": "D-Link Router", "type": "router", "network": ["wifi1"]})
    with pytest.raises(ConfigError):
        parse_config(doc, source="test")


def test_wiring_target_type_checked():
    doc = minimal_doc()
    doc["devices"].append(
        {"name": "Desk Lamp", "type": "bulb", "network": ["wifi1"], "plugs_into": "D-Link Router"}
    )
    with pytest.raises(ConfigError):
        parse_config(doc, source="test")


def test_wiring_resolves_to_atoms():
    doc = minimal_doc()
    doc["devices"].extend(
        [
            {"name": "Wall Outlet", "type": "outlet", "network": ["wifi1"]},
            {
                "name": "Desk Lamp",
                "type": "bulb",
                "network": ["wifi1"],
                "plugs_into": "Wall Outlet",
            },
        ]
    )
    cfg = parse_config(doc, source="test")
    assert cfg.device("Desk Lamp").plugs_into == "wallOutlet"


def test_goals_parsed_and_kept():
    doc = minimal_doc()
    doc["goals"] = ["attackerRoot(dLinkRouter)"]
    cfg = parse_config(doc, source="test")
    assert cfg.goals == (Atom("attackerRoot", ("dLinkRouter",)),)


def test_malformed_goal_rejected():
    doc = minimal_doc()
    doc["goals"] = ["unlock(frontLock"]
    with pytest.raises(ConfigError, match="unlock\\(frontLock"):
        parse_config(doc, source="test")


@pytest.mark.parametrize("goal", ["attackerRoot(X)", "dos(rootPrivilege(D))"])
def test_goal_with_a_variable_rejected(goal):
    doc = minimal_doc()
    doc["goals"] = [goal]
    with pytest.raises(ConfigError, match=f"bad goal '{re.escape(goal)}': it has a variable"):
        parse_config(doc, source="test")


def test_apps_parsed():
    doc = minimal_doc()
    doc["devices"].append({"name": "Hue Wifi Bulb", "type": "bulb", "network": ["wifi1"]})
    doc["apps"] = [
        {
            "App name": "Night Light",
            "description": "Turn on the hall light if there is motion.",
            "device map": {"bulb": "Hue Wifi Bulb"},
        }
    ]
    cfg = parse_config(doc, source="test")
    assert cfg.apps[0].name == "Night Light"
    assert cfg.apps[0].device_map == (("bulb", "Hue Wifi Bulb"),)


def test_device_catalog_is_complete():
    for key, info in DEVICE_TYPES.items():
        assert info.predicate[0].islower()
        assert info.events or info.settable or key in ("router", "gateway")


@pytest.mark.parametrize("name", ["Welcome\nunlock(frontDoor).", "Welcome\r", "Night\u2028Light", "A\x0bB"])
def test_app_name_with_a_line_break_rejected(name):
    doc = minimal_doc()
    doc["apps"] = [{"App name": name, "description": "Turn on the light if there is motion."}]
    with pytest.raises(ConfigError, match="App name must be one line"):
        parse_config(doc, source="test")


@pytest.mark.parametrize("goal", ["unlock('front\nLock')", "unlock('a\rb')", "on('x\u2028y')"])
def test_goal_with_a_line_break_rejected(goal):
    doc = minimal_doc()
    doc["goals"] = [goal]
    with pytest.raises(ConfigError, match="bad goal .*: it spans lines"):
        parse_config(doc, source="test")


def test_goal_text_may_end_in_a_line_break():
    # The break is outside the atom, whose text is one line.
    doc = minimal_doc()
    doc["goals"] = ["attackerRoot(dLinkRouter)\n"]
    assert parse_config(doc, source="test").goals == (Atom("attackerRoot", ("dLinkRouter",)),)


@pytest.mark.parametrize(
    "key, entries",
    [
        ("radio_adjacent", ["wifi1", "wifi1"]),
        ("physical_access", ["D-Link Router", "dLinkRouter"]),
    ],
)
def test_duplicate_attacker_entries_rejected(key, entries):
    doc = minimal_doc()
    doc["attacker"] = {key: entries}
    with pytest.raises(ConfigError, match=f"attacker: duplicate {key} entries"):
        parse_config(doc, source="test")


# Each per-device refusal, as (change to the router's stanza, exact message).
DEVICE_REFUSALS = [
    ({"name": None}, "test: device: missing or empty 'name'"),
    ({"name": "  "}, "test: device: missing or empty 'name'"),
    ({"type": None}, "test: device 'D-Link Router': missing or empty 'type'"),
    ({"type": 7}, "test: device 'D-Link Router': missing or empty 'type'"),
    ({"type": "Toaster"}, "test: device 'D-Link Router': unknown device type 'toaster'"),
    ({"network": {"wifi1": True}}, "test: device 'D-Link Router': network must be a list"),
    ({"network": ["wifi9"]}, "test: device 'D-Link Router': unknown network 'wifi9'"),
    ({"network": "wifi9"}, "test: device 'D-Link Router': unknown network 'wifi9'"),
    ({"network": ["wifi1", ["zigbee1"]]}, "test: device 'D-Link Router': unknown network ['zigbee1']"),
    ({"network": ["wifi1", "wifi1"]}, "test: device 'D-Link Router': duplicate network entries"),
    (
        {"physically_exposed": "yes"},
        "test: device 'D-Link Router': physically_exposed must be a boolean",
    ),
]


@pytest.mark.parametrize("change, message", DEVICE_REFUSALS)
def test_device_refusals_keep_their_text(change, message):
    doc = minimal_doc()
    doc["devices"][0].update(change)
    with pytest.raises(ConfigError) as refused:
        parse_config(doc, source="test")
    assert str(refused.value) == message
