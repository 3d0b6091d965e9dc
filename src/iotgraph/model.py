"""Deployment model: devices, networks, installed apps, attacker profile.

A configuration document is JSON with top-level keys ``devices``, ``networks``,
``apps``, ``attacker``, ``goals``. Devices and networks use the field names
``name``, ``type``, ``network``; apps use ``App name``, ``description``,
``device map``. Everything is validated against a closed device-type lexicon
and normalized to logic-friendly identifiers at parse time. All model types
are immutable after validation, so they are safe to share across threads.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from typing import TypeVar

from .logic import Atom, LogicError, parse_atom


class ConfigError(ValueError):
    """Invalid configuration document."""


SCALAR_CHANNELS = ("temperature", "humidity", "illuminance")

PROTOCOLS = ("wifi", "zigbee", "zwave", "ble", "ethernet")

LOW_POWER_PROTOCOLS = frozenset({"zigbee", "zwave", "ble"})

# Sensor event keys -> (predicate, extra argument tuple appended after the
# sensor instance).
EVENT_ATOMS: dict[str, tuple[str, tuple[str, ...]]] = {
    "motion": ("reportsMotion", ()),
    "open": ("open", ()),
    "ring": ("reportsRing", ()),
    "smoke": ("reportsSmoke", ()),
    "water": ("reportsWater", ()),
    "high temperature": ("reportsHigh", ("temperature",)),
    "low temperature": ("reportsLow", ("temperature",)),
    "high humidity": ("reportsHigh", ("humidity",)),
    "low humidity": ("reportsLow", ("humidity",)),
    "high illuminance": ("reportsHigh", ("illuminance",)),
    "low illuminance": ("reportsLow", ("illuminance",)),
}


_TOKEN = re.compile(r"[A-Za-z0-9]+")


def normalize_name(name: str) -> str:
    """Normalize a display name to a logic identifier.

    Strips non-alphanumerics, camel-cases the remaining tokens, and
    lowercases the first letter, so "D-Link Router" becomes dLinkRouter.
    Idempotent: normalizing an already-normalized identifier is a no-op.
    """

    tokens = _TOKEN.findall(name)
    if not tokens:
        raise ConfigError(f"name {name!r} has no usable characters")
    camel = tokens[0] + "".join(t[0].upper() + t[1:] for t in tokens[1:])
    ident = camel[0].lower() + camel[1:]
    if ident[0].isdigit():
        raise ConfigError(f"name {name!r} normalizes to {ident!r}, which starts with a digit")
    return ident


@dataclass(frozen=True)
class DeviceTypeInfo:
    """The voice role and rule-relevant vocabulary of one device type."""

    name: str
    voice_emitter: bool = False
    senses: frozenset[str] = frozenset()
    # (channel, level) pairs this type drives when switched on.
    affect_states: tuple[tuple[str, str], ...] = ()
    # Sensor event keys (see EVENT_ATOMS) this type reports and an attacker
    # with event access can spoof.
    events: tuple[str, ...] = ()
    # States an attacker with command injection can set.
    settable: tuple[str, ...] = ()
    # The type's logic name, set once here: device_fact_block reads it per device.
    predicate: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicate", normalize_name(self.name))


_ON_OFF = ("on", "off")

DEVICE_TYPES: dict[str, DeviceTypeInfo] = {
    t.name: t
    for t in (
        DeviceTypeInfo("router"),
        DeviceTypeInfo("gateway"),
        DeviceTypeInfo("camera", voice_emitter=True, settable=_ON_OFF),
        DeviceTypeInfo("speaker", voice_emitter=True, settable=_ON_OFF),
        DeviceTypeInfo("bulb", affect_states=(("illuminance", "high"),), settable=_ON_OFF),
        DeviceTypeInfo("outlet", settable=_ON_OFF),
        DeviceTypeInfo("lock", settable=("unlock", "locked")),
        DeviceTypeInfo("door-opener", settable=("open",)),
        DeviceTypeInfo("oven", affect_states=(("smoke", "present"),), settable=_ON_OFF),
        DeviceTypeInfo("heater", affect_states=(("temperature", "high"),), settable=_ON_OFF),
        DeviceTypeInfo("ac", affect_states=(("temperature", "low"),), settable=_ON_OFF),
        DeviceTypeInfo("humidifier", affect_states=(("humidity", "high"),), settable=_ON_OFF),
        DeviceTypeInfo("window-opener", settable=("open",)),
        DeviceTypeInfo("valve", settable=_ON_OFF),
        DeviceTypeInfo("sprinkler", affect_states=(("water", "present"),), settable=_ON_OFF),
        DeviceTypeInfo("stove", affect_states=(("smoke", "present"),), settable=_ON_OFF),
        DeviceTypeInfo("motion-sensor", events=("motion",)),
        DeviceTypeInfo("contact-sensor", events=("open",)),
        DeviceTypeInfo(
            "temperature-sensor",
            senses=frozenset({"temperature"}),
            events=("high temperature", "low temperature"),
        ),
        DeviceTypeInfo(
            "humidity-sensor",
            senses=frozenset({"humidity"}),
            events=("high humidity", "low humidity"),
        ),
        DeviceTypeInfo(
            "light-sensor",
            senses=frozenset({"illuminance"}),
            events=("high illuminance", "low illuminance"),
        ),
        DeviceTypeInfo("smoke-detector", senses=frozenset({"smoke"}), events=("smoke",)),
        DeviceTypeInfo("water-leak-sensor", senses=frozenset({"water"}), events=("water",)),
        DeviceTypeInfo("tv", voice_emitter=True, settable=_ON_OFF),
        DeviceTypeInfo("doorbell", events=("ring",)),
        DeviceTypeInfo(
            "thermostat",
            senses=frozenset({"temperature"}),
            events=("high temperature", "low temperature"),
            settable=_ON_OFF,
        ),
    )
}

assert len(DEVICE_TYPES) == 26

# Opener types whose "open" state is gated by an optional lock wiring.
OPENER_TYPES = frozenset({"door-opener", "window-opener"})

# Device wiring key -> the device type its target must have.
_WIRING = {"plugs_into": "outlet", "locked_by": "lock", "supplied_by": "valve"}


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    atom: str
    protocol: str


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    atom: str
    device_type: str
    networks: tuple[str, ...] = ()
    physically_exposed: bool = False
    plugs_into: str | None = None
    locked_by: str | None = None
    supplied_by: str | None = None

    @property
    def info(self) -> DeviceTypeInfo:
        return DEVICE_TYPES[self.device_type]


@dataclass(frozen=True)
class AppSpec:
    name: str
    description: str
    device_map: tuple[tuple[str, str], ...] = ()

    def map_dict(self) -> dict[str, str]:
        return dict(self.device_map)


@dataclass(frozen=True)
class AttackerProfile:
    has_internet: bool = True
    radio_adjacent: tuple[str, ...] = ()
    physical_access: tuple[str, ...] = ()


Spec = TypeVar("Spec", DeviceSpec, NetworkSpec)


def _by_key(specs: Iterable[Spec]) -> dict[str, Spec]:
    """Specs by atom and by display name; a key maps to its first match in order."""

    out: dict[str, Spec] = {}
    for spec in specs:
        out.setdefault(spec.atom, spec)
        out.setdefault(spec.name, spec)
    return out


def _lookup(index: dict[str, Spec], key: object, message: str) -> Spec:
    """The spec under ``key``; ``ConfigError(message)`` if none or not a string."""

    spec = index.get(key) if isinstance(key, str) else None
    _require(spec is not None, message)
    return spec


@dataclass(frozen=True)
class SystemConfig:
    devices: tuple[DeviceSpec, ...]
    networks: tuple[NetworkSpec, ...]
    apps: tuple[AppSpec, ...] = ()
    attacker: AttackerProfile = field(default_factory=AttackerProfile)
    goals: tuple[Atom, ...] = ()
    _devices_by_key: dict[str, DeviceSpec] = field(init=False, repr=False, compare=False)
    _networks_by_key: dict[str, NetworkSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_devices_by_key", _by_key(self.devices))
        object.__setattr__(self, "_networks_by_key", _by_key(self.networks))

    def device(self, key: str) -> DeviceSpec:
        return _lookup(self._devices_by_key, key, f"unknown device: {key!r}")

    def device_index(self) -> Mapping[str, DeviceSpec]:
        """Devices by display name and by atom, as ``device()`` finds them."""

        return self._devices_by_key

    def network_index(self) -> Mapping[str, NetworkSpec]:
        """Networks by display name and by atom."""

        return self._networks_by_key


def is_one_line(text: str) -> bool:
    """Whether ``text`` holds no character that ``str.splitlines`` breaks on."""

    return text.splitlines() == [text]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _string_field(stanza: dict, key: str, where: str) -> str:
    value = stanza.get(key)
    _require(isinstance(value, str) and value.strip() != "", f"{where}: missing or empty {key!r}")
    return value


def _list_field(stanza: dict, key: str, where: str) -> list:
    value = stanza.get(key, [])
    _require(isinstance(value, list), f"{where}: {key} must be a list")
    return value


def parse_goal(text: str) -> Atom:
    """A goal atom, from a config's ``goals`` or the command line."""

    try:
        goal = parse_atom(text)
    except LogicError as exc:
        raise ConfigError(f"bad goal {text!r}: {exc}") from None
    # No derived atom has a variable, so such a goal could never be reached.
    _require(goal.is_ground(), f"bad goal {text!r}: it has a variable")
    # program.pl prints each goal on a line of its own.
    _require(is_one_line(goal.render()), f"bad goal {text!r}: it spans lines")
    return goal


def parse_config(document: str | dict, source: str = "config") -> SystemConfig:
    """Parse and validate a configuration document (JSON text or dict)."""

    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{source}: syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    else:
        raw = document
    _require(isinstance(raw, dict), f"{source}: top level must be an object")
    known = {"devices", "networks", "apps", "attacker", "goals"}
    unknown = set(raw) - known
    _require(not unknown, f"{source}: unknown top-level keys {sorted(unknown)}")

    atoms: dict[str, str] = {}

    def claim(name: str, what: str) -> str:
        atom = normalize_name(name)
        if atom in atoms:
            raise ConfigError(
                f"{source}: {what} {name!r} normalizes to {atom!r}, "
                f"already taken by {atoms[atom]!r}"
            )
        atoms[atom] = name
        return atom

    networks: list[NetworkSpec] = []
    for stanza in _list_field(raw, "networks", source):
        _require(isinstance(stanza, dict), f"{source}: network stanza must be an object")
        name = _string_field(stanza, "name", f"{source}: network")
        proto = _string_field(stanza, "type", f"{source}: network {name!r}").lower()
        _require(proto in PROTOCOLS, f"{source}: network {name!r}: unknown protocol {proto!r}")
        networks.append(NetworkSpec(name, claim(name, "network"), proto))
    net_by_name = _by_key(networks)

    def device_error(name: str, problem: str) -> ConfigError:
        return ConfigError(f"{source}: device {name!r}: {problem}")

    devices: list[DeviceSpec] = []
    # (index in devices, wiring key -> target) for devices with wiring: the
    # targets resolve once every device is known.
    wiring: list[tuple[int, dict[str, object]]] = []
    # The checks of _string_field and _lookup, inline: a home has thousands
    # of devices, so a message is formatted only for a check that fails.
    for stanza in _list_field(raw, "devices", source):
        if not isinstance(stanza, dict):
            raise ConfigError(f"{source}: device stanza must be an object")
        name = stanza.get("name")
        if not isinstance(name, str) or name.strip() == "":
            raise ConfigError(f"{source}: device: missing or empty 'name'")
        dtype = stanza.get("type")
        if not isinstance(dtype, str) or dtype.strip() == "":
            raise device_error(name, "missing or empty 'type'")
        dtype = dtype.lower()
        if dtype not in DEVICE_TYPES:
            raise device_error(name, f"unknown device type {dtype!r}")
        nets = stanza.get("network", [])
        if isinstance(nets, str):
            nets = [nets]
        if not isinstance(nets, list):
            raise device_error(name, "network must be a list")
        net_atoms = []
        for net in nets:
            spec = net_by_name.get(net) if isinstance(net, str) else None
            if spec is None:
                raise device_error(name, f"unknown network {net!r}")
            net_atoms.append(spec.atom)
        if len(set(net_atoms)) != len(net_atoms):
            raise device_error(name, "duplicate network entries")
        exposed = stanza.get("physically_exposed", False)
        if not isinstance(exposed, bool):
            raise device_error(name, "physically_exposed must be a boolean")
        wired = {key: stanza[key] for key in _WIRING if stanza.get(key) is not None}
        if wired:
            wiring.append((len(devices), wired))
        devices.append(DeviceSpec(name, claim(name, "device"), dtype, tuple(net_atoms), exposed))

    dev_by_name = _by_key(devices)
    for i, wired in wiring:
        d = devices[i]
        where = f"{source}: device {d.name!r}"
        resolved = {}
        for key, target in wired.items():
            _require(isinstance(target, str), f"{where}: {key} must be a string")
            ref = _lookup(dev_by_name, target, f"{where}: {key} names unknown device {target!r}")
            want = _WIRING[key]
            _require(
                ref.device_type == want,
                f"{where}: {key} target {target!r} must be a {want}, not a {ref.device_type}",
            )
            resolved[key] = ref.atom
        _require(
            "locked_by" not in resolved or d.device_type in OPENER_TYPES,
            f"{where}: locked_by only applies to openers",
        )
        devices[i] = replace(d, **resolved)

    apps: list[AppSpec] = []
    for stanza in _list_field(raw, "apps", source):
        _require(isinstance(stanza, dict), f"{source}: app stanza must be an object")
        name = _string_field(stanza, "App name", f"{source}: app")
        where = f"{source}: app {name!r}"
        # program.pl prints the name on a comment line of its own.
        _require(is_one_line(name), f"{where}: App name must be one line")
        description = _string_field(stanza, "description", where)
        device_map = stanza.get("device map", {})
        _require(isinstance(device_map, dict), f"{where}: device map must be an object")
        for role, target in device_map.items():
            _require(isinstance(role, str) and role.strip() != "", f"{where}: empty role key")
            _lookup(
                dev_by_name, target, f"{where}: device map role {role!r} names unknown device {target!r}"
            )
        apps.append(AppSpec(name, description, tuple(device_map.items())))

    attacker_raw = raw.get("attacker", {})
    _require(isinstance(attacker_raw, dict), f"{source}: attacker must be an object")
    unknown = set(attacker_raw) - {"has_internet", "radio_adjacent", "physical_access"}
    _require(not unknown, f"{source}: attacker: unknown keys {sorted(unknown)}")
    has_internet = attacker_raw.get("has_internet", True)
    _require(isinstance(has_internet, bool), f"{source}: attacker: has_internet must be a boolean")
    if "radio_adjacent" in attacker_raw:
        radio = []
        for net in _list_field(attacker_raw, "radio_adjacent", f"{source}: attacker"):
            spec = _lookup(net_by_name, net, f"{source}: attacker: unknown network {net!r}")
            _require(
                spec.protocol != "ethernet",
                f"{source}: attacker: radio adjacency to wired network {net!r} is meaningless",
            )
            radio.append(spec.atom)
    else:
        radio = [n.atom for n in networks if n.protocol != "ethernet"]
    if "physical_access" in attacker_raw:
        touch = [
            _lookup(dev_by_name, dev, f"{source}: attacker: unknown device {dev!r}").atom
            for dev in _list_field(attacker_raw, "physical_access", f"{source}: attacker")
        ]
    else:
        touch = [d.atom for d in devices if d.physically_exposed]
    for key, entries in (("radio_adjacent", radio), ("physical_access", touch)):
        _require(len(set(entries)) == len(entries), f"{source}: attacker: duplicate {key} entries")

    goals = []
    for g in _list_field(raw, "goals", source):
        _require(isinstance(g, str) and g.strip() != "", f"{source}: goals must be atom strings")
        try:
            goals.append(parse_goal(g))
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None

    return SystemConfig(
        devices=tuple(devices),
        networks=tuple(networks),
        apps=tuple(apps),
        attacker=AttackerProfile(has_internet, tuple(radio), tuple(touch)),
        goals=tuple(goals),
    )
