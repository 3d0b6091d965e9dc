"""Trigger-action app descriptions: parsing, role matching, rule emission.

App descriptions follow the "do X if/when Y" pattern common on smart-home
platforms. The pipeline is: split the description into conditional and main
clauses, break each clause into simple sentences at coordinating
conjunctions, chunk noun/verb phrases with a part-of-speech pattern, match
the phrases against a device-role lexicon, then bind the matched roles to
concrete devices through the app's device map and emit one Horn rule per
(action, trigger-alternative) pair.

The role lexicon and the part-of-speech table live in ``data/lexicon.json``;
edit that file to change them.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .logic import Atom, HornRule
from .model import DEVICE_TYPES, EVENT_ATOMS, AppSpec, ConfigError, SystemConfig, normalize_name


class AppParseError(ValueError):
    """Description does not fit the supported trigger-action grammar."""


class AppBindError(ValueError):
    """Parsed roles cannot be bound to the app's device map."""


_MARKER = re.compile(r"\b(in case|whenever|while|when|once|if)\b", re.I)
_NEGATION = re.compile(r"\b(not|never|no one|nobody|unless|don't|doesn't|won't)\b", re.I)
_CONJ = re.compile(r"\s*\b(and|or)\b\s*", re.I)
_TOKEN = re.compile(r"[A-Za-z0-9']+")


@dataclass(frozen=True)
class ClauseSplit:
    conditional: str
    main: str


@dataclass(frozen=True)
class PhrasePair:
    """Noun and verb phrases chunked from one simple sentence."""

    nps: tuple[str, ...]
    vps: tuple[str, ...]

    def as_pair(self) -> tuple[list[str], list[str]]:
        return (list(self.nps), list(self.vps))


@dataclass(frozen=True)
class LexiconRole:
    role: str
    side: str
    device_type: str
    # Each noun alternative as the token set a noun phrase must hold, with
    # its score: the alternative's length as written.
    nouns: tuple[tuple[frozenset[str], int], ...]
    # Verb phrase, lowercase and single-spaced -> event or state.
    verbs: dict[str, str] = field(hash=False)
    default_event: str | None = None
    voice: bool = False


@dataclass(frozen=True)
class Lexicon:
    pos: dict[str, str]
    triggers: tuple[LexiconRole, ...]
    actions: tuple[LexiconRole, ...]


@functools.cache
def load_lexicon() -> Lexicon:
    raw = json.loads(resources.files("iotgraph.data").joinpath("lexicon.json").read_text())
    triggers, actions = [], []
    for entry in raw["roles"]:
        role = LexiconRole(
            role=entry["role"],
            side=entry["side"],
            device_type=entry["type"],
            nouns=tuple((frozenset(alt), len(alt)) for alt in entry["nouns"]),
            verbs=dict(entry.get("verbs", {})),
            default_event=entry.get("default_event"),
            voice=entry.get("voice", False),
        )
        if role.device_type not in DEVICE_TYPES:
            raise ValueError(f"lexicon role {role.role!r} names unknown type {role.device_type!r}")
        (triggers if role.side == "trigger" else actions).append(role)
    return Lexicon(pos=dict(raw["pos"]), triggers=tuple(triggers), actions=tuple(actions))


def split_clauses(description: str) -> ClauseSplit:
    """Split a description into conditional and main clause text."""

    text = description.strip()
    if text.endswith("."):
        text = text[:-1].rstrip()
    m = _MARKER.search(text)
    if not m:
        raise AppParseError(f"no conditional marker (if/when/...) in: {description!r}")
    if m.start() == 0:
        rest = text[m.end():]
        comma = rest.find(",")
        if comma < 0:
            raise AppParseError(
                f"leading {m.group(1)!r} clause needs a comma before the action: {description!r}"
            )
        conditional = rest[:comma].strip()
        main = rest[comma + 1:].strip()
        if main.lower().startswith("then "):
            main = main[5:].strip()
    else:
        main = text[: m.start()].rstrip(" ,")
        conditional = text[m.end():].strip()
    if not conditional or not main:
        raise AppParseError(f"empty clause after splitting: {description!r}")
    return ClauseSplit(conditional=conditional, main=main)


def split_conjuncts(clause: str) -> tuple[str, list[str]]:
    """Break a clause at coordinating conjunctions.

    Returns ('AND'|'OR'|'NONE', simple sentences). Mixing "and" with "or"
    in one clause is rejected as ambiguous.
    """

    pieces = _CONJ.split(clause)
    sentences = [p.strip(" ,") for p in pieces[0::2]]
    connectives = {c.upper() for c in pieces[1::2]}
    sentences = [s for s in sentences if s]
    if not sentences:
        raise AppParseError(f"clause has no content: {clause!r}")
    if len(connectives) > 1:
        raise AppParseError(f"clause mixes 'and' with 'or': {clause!r}")
    if len(sentences) == 1:
        return "NONE", sentences
    conn = connectives.pop() if connectives else "AND"
    return conn, sentences


def extract_phrases(sentence: str) -> PhrasePair:
    """Chunk a simple sentence into noun phrases and verb phrases.

    Noun phrases follow determiner + adjectives + nouns; verb phrases are a
    verb plus an optional particle or preposition. Unknown words tag as
    nouns, which suits device vocabulary.
    """

    pos = load_lexicon().pos
    tokens = _TOKEN.findall(sentence)
    tags = [pos.get(t.lower(), "NN") for t in tokens]
    n = len(tokens)
    nps, vps = [], []
    i = 0
    while i < n:
        j = i
        if j < n and tags[j] == "DT":
            j += 1
        while j < n and tags[j] == "JJ":
            j += 1
        k = j
        while k < n and tags[k].startswith("NN"):
            k += 1
        if k > j:
            nps.append(" ".join(tokens[i:k]))
            i = k
            continue
        if tags[i].startswith("VB"):
            k = i + 1
            if k < n and tags[k] in ("IN", "RP"):
                k += 1
            vps.append(" ".join(tokens[i:k]))
            i = k
            continue
        i += 1
    return PhrasePair(nps=tuple(nps), vps=tuple(vps))


@dataclass(frozen=True)
class TriggerMatch:
    role: str
    device_type: str
    event: str
    command: str | None = None
    # The command phrase as the identifier ``speakerHears`` takes.
    command_id: str | None = None

    @property
    def display_event(self) -> str:
        if self.command is not None:
            return f"hears {self.command.lower()}"
        return self.event


@dataclass(frozen=True)
class ActionMatch:
    role: str
    device_type: str
    state: str


@dataclass(frozen=True)
class _SentenceKeys:
    """What the lexicon matches in one sentence, built once for every role."""

    np_sets: tuple[frozenset[str], ...]
    # Every noun-phrase token: a noun alternative outside it is in no phrase.
    np_tokens: frozenset[str]
    vp_keys: tuple[str, ...]

    @staticmethod
    def of(phrases: PhrasePair) -> "_SentenceKeys":
        np_sets = tuple(frozenset(t.lower() for t in _TOKEN.findall(np)) for np in phrases.nps)
        vp_keys = tuple(" ".join(_TOKEN.findall(vp)).lower() for vp in phrases.vps)
        return _SentenceKeys(np_sets, frozenset().union(*np_sets), vp_keys)

    def score(self, role: LexiconRole) -> int:
        """The longest of the role's noun alternatives one noun phrase holds; 0 if none."""

        best = 0
        for need, n in role.nouns:
            if n > best and need <= self.np_tokens and any(need <= s for s in self.np_sets):
                best = n
        return best

    def verb(self, role: LexiconRole) -> str | None:
        """The role's meaning of the first verb phrase it knows, if any."""

        for key in self.vp_keys:
            if key in role.verbs:
                return role.verbs[key]
        return None


def match_trigger(sentence: str, phrases: PhrasePair) -> TriggerMatch:
    keys = _SentenceKeys.of(phrases)
    best: tuple[int, LexiconRole] | None = None
    for role in load_lexicon().triggers:
        score = keys.score(role)
        if score > 0 and (best is None or score > best[0]):
            best = (score, role)
    if best is None:
        raise AppParseError(f"no sensor role matches trigger sentence: {sentence!r}")
    role = best[1]
    if role.voice:
        m = re.search(r"\bhears?\b", sentence, re.I)
        command = sentence[m.end():].strip(" .,") if m else ""
        if not command:
            raise AppParseError(f"voice trigger has no command phrase: {sentence!r}")
        try:
            command_id = normalize_name(command)
        except ConfigError as exc:
            raise AppParseError(f"voice trigger {sentence!r}: {exc}") from None
        return TriggerMatch(role.role, role.device_type, "hears", command, command_id)
    event = keys.verb(role) or role.default_event
    if event is None:
        raise AppParseError(f"cannot resolve the event for {role.role!r} in: {sentence!r}")
    return TriggerMatch(role.role, role.device_type, event)


def match_action(sentence: str, phrases: PhrasePair) -> ActionMatch:
    keys = _SentenceKeys.of(phrases)
    best: tuple[int, LexiconRole, str] | None = None
    for role in load_lexicon().actions:
        state = keys.verb(role)
        if state is None:
            continue
        score = keys.score(role)
        if score > 0 and (best is None or score > best[0]):
            best = (score, role, state)
    if best is None:
        raise AppParseError(f"no actuator role matches action sentence: {sentence!r}")
    _, role, state = best
    return ActionMatch(role.role, role.device_type, state)


@dataclass(frozen=True)
class AppSemantics:
    """Parsed trigger-action structure of one app description."""

    trigger_conn: str
    trigger_sentences: tuple[str, ...]
    trigger_phrases: tuple[PhrasePair, ...]
    triggers: tuple[TriggerMatch, ...]
    action_conn: str
    action_sentences: tuple[str, ...]
    action_phrases: tuple[PhrasePair, ...]
    actions: tuple[ActionMatch, ...]

    def as_tuple(self) -> tuple:
        return (
            self.trigger_conn,
            [t.role for t in self.triggers],
            [t.display_event for t in self.triggers],
            self.action_conn,
            [a.role for a in self.actions],
            [a.state for a in self.actions],
        )

    def render_split(self) -> str:
        cond = (self.trigger_conn, list(self.trigger_sentences))
        main = (self.action_conn, list(self.action_sentences))
        return f"conditional:  {cond!r}\nmain:  {main!r}"

    def render_phrases(self) -> str:
        cond = [p.as_pair() for p in self.trigger_phrases]
        main = [p.as_pair() for p in self.action_phrases]
        return f"conditional clause: {cond!r}\nmain clause: {main!r}"


def parse_app_description(description: str) -> AppSemantics:
    """Run the full description pipeline: split, chunk, match."""

    if _NEGATION.search(description):
        raise AppParseError(f"negated conditions are not supported: {description!r}")
    split = split_clauses(description)
    trigger_conn, trigger_sentences = split_conjuncts(split.conditional)
    action_conn, action_sentences = split_conjuncts(split.main)
    if action_conn == "OR":
        raise AppParseError(f"alternative actions are ambiguous: {split.main!r}")
    trigger_phrases = [extract_phrases(s) for s in trigger_sentences]
    action_phrases = [extract_phrases(s) for s in action_sentences]
    triggers = [match_trigger(s, p) for s, p in zip(trigger_sentences, trigger_phrases)]
    actions = [match_action(s, p) for s, p in zip(action_sentences, action_phrases)]
    return AppSemantics(
        trigger_conn=trigger_conn,
        trigger_sentences=tuple(trigger_sentences),
        trigger_phrases=tuple(trigger_phrases),
        triggers=tuple(triggers),
        action_conn=action_conn,
        action_sentences=tuple(action_sentences),
        action_phrases=tuple(action_phrases),
        actions=tuple(actions),
    )


@dataclass(frozen=True)
class BoundApp:
    """An app whose roles are bound to devices, with its emitted rules."""

    app: AppSpec
    rules: tuple[HornRule, ...]
    voice_commands: tuple[str, ...]


def _map_key_for(role_display: str, device_map: dict[str, str]) -> str | None:
    if role_display in device_map:
        return role_display
    role_tokens = {t.lower() for t in _TOKEN.findall(role_display)}
    key_tokens = {key: {t.lower() for t in _TOKEN.findall(key)} for key in device_map}
    candidates = [key for key, tokens in key_tokens.items() if tokens <= role_tokens]
    # max keeps the first of the longest keys, in device map order.
    return max(candidates, key=lambda key: len(key_tokens[key]), default=None)


def bind_app(app: AppSpec, semantics: AppSemantics, config: SystemConfig) -> BoundApp:
    """Bind parsed roles to devices via the app's device map, emit rules."""

    device_map = app.map_dict()
    index = config.device_index()

    def resolve(role_display: str, device_type: str) -> str:
        key = _map_key_for(role_display, device_map)
        if key is None:
            raise AppBindError(f"app {app.name!r}: device map has no entry for role {role_display!r}")
        target = device_map[key]
        spec = index.get(target)
        if spec is None:
            raise AppBindError(f"app {app.name!r}: device map names unknown device {target!r}")
        if spec.device_type != device_type:
            raise AppBindError(
                f"app {app.name!r}: role {role_display!r} needs a {device_type}, "
                f"but {target!r} is a {spec.device_type}"
            )
        return spec.atom

    trigger_devices = [resolve(t.role, t.device_type) for t in semantics.triggers]
    action_devices = [resolve(a.role, a.device_type) for a in semantics.actions]

    if semantics.trigger_conn == "OR":
        groups = [[i] for i in range(len(semantics.triggers))]
    else:
        groups = [list(range(len(semantics.triggers)))]

    rules = []
    for action, actuator in zip(semantics.actions, action_devices):
        info = DEVICE_TYPES[action.device_type]
        if action.state not in info.settable:
            raise AppBindError(
                f"app {app.name!r}: a {action.device_type} cannot be set to {action.state!r}"
            )
        head = Atom(action.state, (actuator,))
        for group in groups:
            body = [Atom(info.predicate, (actuator,))]
            for idx in group:
                trigger = semantics.triggers[idx]
                sensor = trigger_devices[idx]
                if trigger.command_id is not None:
                    body.append(Atom("speakerHears", (trigger.command_id,)))
                else:
                    pred, extra = EVENT_ATOMS[trigger.event]
                    body.append(Atom(pred, (sensor, *extra)))
                body.append(Atom(DEVICE_TYPES[trigger.device_type].predicate, (sensor,)))
            rules.append(HornRule(head, tuple(body), label=app.name))
    return BoundApp(
        app=app,
        rules=tuple(rules),
        voice_commands=tuple(t.command_id for t in semantics.triggers if t.command_id is not None),
    )
