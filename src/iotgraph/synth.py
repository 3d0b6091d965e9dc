"""Deterministic synthetic deployments for benchmarks and scaling runs.

``synthesize(n, seed)`` builds an n-device home from a fixed catalog of
plausible consumer devices, wires apps over whatever roles the draw
provides, and returns a validated configuration. The same (n, seed) pair
always yields the same document.
"""

from __future__ import annotations

import json
import random
from typing import Any

from .model import SystemConfig, normalize_name, parse_config

# (display name, device type). The first two entries anchor every draw so a
# router and a hub are always present.
CATALOG: tuple[tuple[str, str], ...] = (
    ("Netgear Router", "router"),
    ("Smartthings Hub", "gateway"),
    ("D-Link Router", "router"),
    ("Tp Link Router", "router"),
    ("Asus Router", "router"),
    ("Hue Bridge", "gateway"),
    ("Xiaomi Gateway", "gateway"),
    ("August Bridge", "gateway"),
    ("Arlo Basestation", "camera"),
    ("Nest Camera", "camera"),
    ("D-Link Camera", "camera"),
    ("Wyze Camera", "camera"),
    ("Reolink Camera", "camera"),
    ("Sonos Speaker", "speaker"),
    ("Echo Speaker", "speaker"),
    ("Google Speaker", "speaker"),
    ("Roku TV", "tv"),
    ("Samsung TV", "tv"),
    ("Sony TV", "tv"),
    ("Hue Wifi Bulb", "bulb"),
    ("Living Room Bulb", "bulb"),
    ("Porch Floodlight", "bulb"),
    ("Ikea Bulb", "bulb"),
    ("Lifx Bulb", "bulb"),
    ("Hallway Lamp", "bulb"),
    ("Kitchen Outlet", "outlet"),
    ("Bedroom Outlet", "outlet"),
    ("Wemo Outlet", "outlet"),
    ("Yale Lock", "lock"),
    ("Schlage Lock", "lock"),
    ("Kwikset Lock", "lock"),
    ("Garage Door Opener", "door-opener"),
    ("Side Door Opener", "door-opener"),
    ("Window Opener", "window-opener"),
    ("Balcony Window Opener", "window-opener"),
    ("Skylight Opener", "window-opener"),
    ("Smart Oven", "oven"),
    ("Bosch Oven", "oven"),
    ("Induction Stove", "stove"),
    ("Electric Heater", "heater"),
    ("Space Heater", "heater"),
    ("Portable Ac", "ac"),
    ("Window Ac", "ac"),
    ("Levoit Humidifier", "humidifier"),
    ("Hallway Humidifier", "humidifier"),
    ("Ecobee Thermostat", "thermostat"),
    ("Nest Thermostat", "thermostat"),
    ("Water Valve", "valve"),
    ("Gas Valve", "valve"),
    ("Lawn Sprinkler", "sprinkler"),
    ("Garden Sprinkler", "sprinkler"),
    ("Mijia Motion Sensor", "motion-sensor"),
    ("Aqara Motion Sensor", "motion-sensor"),
    ("Hue Motion Sensor", "motion-sensor"),
    ("Ring Contact Sensor", "contact-sensor"),
    ("Aqara Contact Sensor", "contact-sensor"),
    ("Fibaro Temperature Sensor", "temperature-sensor"),
    ("Fibaro Humidity Sensor", "humidity-sensor"),
    ("Aqara Light Sensor", "light-sensor"),
    ("Kidde Smoke Detector", "smoke-detector"),
    ("First Alert Smoke Detector", "smoke-detector"),
    ("Honeywell Water Leak Sensor", "water-leak-sensor"),
    ("Ring Doorbell", "doorbell"),
    ("Nest Doorbell", "doorbell"),
)

# Device types that live on the low-power mesh in synthetic homes.
_ZIGBEE_TYPES = frozenset(
    {
        "motion-sensor",
        "contact-sensor",
        "temperature-sensor",
        "humidity-sensor",
        "light-sensor",
        "smoke-detector",
        "water-leak-sensor",
        "lock",
        "valve",
        "sprinkler",
    }
)

# (app name, description, {device-map key: required device type})
APP_BUNDLES: tuple[tuple[str, str, dict[str, str]], ...] = (
    (
        "Welcome Light",
        "Turn on the hall light if there is motion and the door opens.",
        {"bulb": "bulb", "motion sensor": "motion-sensor", "contact sensor": "contact-sensor"},
    ),
    (
        "Smoke Ventilation",
        "Open the window when smoke is detected.",
        {"window opener": "window-opener", "smoke detector": "smoke-detector"},
    ),
    (
        "Fire Door Release",
        "Unlock the front door when smoke is detected.",
        {"lock": "lock", "smoke detector": "smoke-detector"},
    ),
    (
        "Voice Unlock",
        "Unlock the front door when the speaker hears unlock the front door.",
        {"lock": "lock", "speaker": "speaker"},
    ),
    (
        "Voice Preheat",
        "Preheat the oven when the speaker hears preheat the oven.",
        {"oven": "oven", "speaker": "speaker"},
    ),
    (
        "Voice Light",
        "Turn on the living room bulb when the speaker hears turn on the living room bulb.",
        {"bulb": "bulb", "speaker": "speaker"},
    ),
    (
        "Voice Window",
        "Open the window when the speaker hears open the window.",
        {"window opener": "window-opener", "speaker": "speaker"},
    ),
    (
        "Voice Humidifier",
        "Turn on the humidifier when the speaker hears turn on the humidifier.",
        {"humidifier": "humidifier", "speaker": "speaker"},
    ),
    (
        "Morning Heat",
        "Turn on the heater when the temperature drops.",
        {"heater": "heater", "temperature sensor": "temperature-sensor"},
    ),
    (
        "Summer Cooling",
        "Turn on the air conditioner when the temperature rises.",
        {"ac": "ac", "temperature sensor": "temperature-sensor"},
    ),
    (
        "Leak Shutoff",
        "Shut off the water valve when water is detected.",
        {"valve": "valve", "water leak sensor": "water-leak-sensor"},
    ),
    (
        "Doorbell Light",
        "Turn on the porch light when someone rings the doorbell.",
        {"bulb": "bulb", "doorbell": "doorbell"},
    ),
    (
        "Motion Floodlight",
        "Turn on the floodlight when there is motion.",
        {"bulb": "bulb", "motion sensor": "motion-sensor"},
    ),
    (
        "Dry Air",
        "Turn on the humidifier when the humidity drops.",
        {"humidifier": "humidifier", "humidity sensor": "humidity-sensor"},
    ),
    (
        "Voice Garage",
        "Open the garage door when the speaker hears open the garage door.",
        {"door opener": "door-opener", "speaker": "speaker"},
    ),
)


def synth_document(n_devices: int, seed: int = 0) -> dict[str, Any]:
    """Build the configuration document for an n-device synthetic home."""

    if n_devices < 2:
        raise ValueError("a synthetic home needs at least a router and a hub")
    rng = random.Random(seed)

    picks: list[tuple[str, str]] = [CATALOG[0], CATALOG[1]]
    pool = list(CATALOG[2:])
    rng.shuffle(pool)
    copy_round = 1
    while len(picks) < n_devices:
        if not pool:
            copy_round += 1
            pool = [(f"{name} {copy_round}", kind) for name, kind in CATALOG[2:]]
            rng.shuffle(pool)
        picks.append(pool.pop())

    devices = []
    for name, kind in picks:
        if kind == "gateway":
            nets = ["home wifi", "home zigbee"]
        elif kind in _ZIGBEE_TYPES:
            nets = ["home zigbee"]
        else:
            nets = ["home wifi"]
        devices.append({"name": name, "type": kind, "network": nets})

    by_type: dict[str, list[str]] = {}
    for d in devices:
        by_type.setdefault(d["type"], []).append(d["name"])

    apps = []
    used: set[str] = set()
    budget = max(2, (2 * n_devices) // 3)
    bundles = list(APP_BUNDLES)
    rng.shuffle(bundles)
    for app_name, description, requires in bundles:
        if not all(by_type.get(kind) for kind in requires.values()):
            continue
        assignment = {key: rng.choice(by_type[kind]) for key, kind in requires.items()}
        if len(used | set(assignment.values())) > budget:
            continue
        used.update(assignment.values())
        apps.append({"App name": app_name, "description": description, "device map": assignment})

    goals = []
    for kind, state in (("lock", "unlock"), ("window-opener", "open"), ("door-opener", "open"), ("oven", "on")):
        for name in by_type.get(kind, []):
            goals.append(f"{state}({normalize_name(name)})")

    doc: dict[str, Any] = {
        "devices": devices,
        "networks": [
            {"name": "home wifi", "type": "wifi"},
            {"name": "home zigbee", "type": "zigbee"},
        ],
        "apps": apps,
        "goals": goals,
    }
    return doc


def synthesize(n_devices: int, seed: int = 0) -> SystemConfig:
    return parse_config(synth_document(n_devices, seed), source=f"synth(n={n_devices}, seed={seed})")


def render_synth(n_devices: int, seed: int = 0) -> str:
    return json.dumps(synth_document(n_devices, seed), indent=2) + "\n"
