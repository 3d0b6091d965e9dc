"""Library evaluation and the argument syntax against the earlier implementation.

``oracles.fired_library_instances`` grounds the library with a copy of the
earlier grounder, which joins fact atoms and gives every other variable a
pool, and saturates naively. The package evaluates the library semi-naively
and builds only the instances that fire; it must fire the same
``(head, body, label)`` set and derive the same atoms. The evaluation's
loop is also the saturation ``analyze`` slices the graph from, and with no
library it is ``saturate``; either way it must be the least model that
``oracles.least_model`` sweeps to, with each rule whose body holds in it
fired once. The argument functions must give the same text, variables and
substitutions as the copies for any argument string.
"""

from __future__ import annotations

import copy
import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from iotgraph import logic, pipeline, reasoner, rules
from iotgraph.logic import Atom, HornRule, LogicError, LogicProgram
from iotgraph.model import parse_config
from iotgraph.pipeline import analyze, bind_apps, build_models, scan_devices
from iotgraph.reasoner import saturate
from iotgraph.synth import synth_document, synthesize

from conftest import FIXTURE_NAMES, SYNTH_HOMES, load_fixture_config

HOMES = [(name, None) for name in FIXTURE_NAMES] + list(SYNTH_HOMES)


def _config(home):
    name, seed = home
    if seed is None:
        return load_fixture_config(name)
    return synthesize(name, seed=seed)


def _home_id(home):
    name, seed = home
    return name if seed is None else f"synth{name}-{seed}"


def _analyze_recording_evaluation(home, store, monkeypatch):
    """Analyse ``home`` and return the result, the evaluator's arguments and
    the instances it returned."""

    calls = []
    real = rules.ground_static_rules

    def recording(*args, **kwargs):
        fired = real(*args, **kwargs)
        calls.append((args, fired))
        return fired

    monkeypatch.setattr(rules, "ground_static_rules", recording)
    result = analyze(_config(home), store)
    assert len(calls) == 1
    return result, calls[0]


def _fired_set(instances):
    return {(rule.head, rule.body, rule.label) for rule in instances}


def _assert_one_object_per_atom(atoms, facts=()):
    """Equal atoms are one object, and an atom equal to a fact is the fact."""

    objects = {}
    for fact in facts:
        objects.setdefault(fact, fact)
    for atom in atoms:
        assert objects.setdefault(atom, atom) is atom, atom.render()


def _assert_least_model(got, facts, program_rules):
    """``got`` is the saturation of ``facts`` and ``program_rules``, up to the order of firing.

    The reference shares no code with the evaluator: the least model is
    swept naively, and the firings are the rules whose bodies hold in it.
    """

    model = oracles.least_model(facts, program_rules)
    assert _known(got) == model
    assert got.derived == model - set(facts)
    want = [rule for rule in program_rules if all(a in model for a in rule.body)]
    assert Counter(_firings(got.fired)) == Counter(_firings(want))
    # The index names each firing once, under its own head.
    by_head = got.rows_by_head()
    assert sorted(k for ks in by_head.values() for k in ks) == list(range(len(got.fired)))
    for head, ks in by_head.items():
        assert all(got.fired[k].head == got.atom(head) for k in ks)


def _known(sat):
    """The atoms the saturation knows, facts and derived."""

    return {sat.atom(i) for i, state in enumerate(sat.state) if state}


def _firings(fired):
    return [(rule.head, rule.body, rule.label) for rule in fired]


def _compile_saturating(config, store):
    """The compiled system of ``config`` and the saturation its grounding recorded."""

    models = build_models(config, scan_devices(config, store))
    bound, _ = bind_apps(config)
    compiled = rules.compile_system(config, models, bound)
    return compiled, compiled.grounding.saturation


@pytest.mark.parametrize("home", HOMES, ids=_home_id)
def test_grounding_saturation_matches_saturate(home, store):
    compiled, got = _compile_saturating(_config(home), store)
    assert got.fired
    program = compiled.program
    _assert_least_model(got, program.facts, program.rules)
    _assert_least_model(saturate(program), program.facts, program.rules)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 90), seed=st.integers(0, 2**32 - 1))
def test_grounding_saturation_matches_saturate_on_synthetic_homes(n, seed, store):
    config = parse_config(synth_document(n, seed), source="synth")
    compiled, got = _compile_saturating(config, store)
    program = compiled.program
    _assert_least_model(got, program.facts, program.rules)
    _assert_least_model(saturate(program), program.facts, program.rules)


# A few predicates over two constants, so random rules share atoms, repeat
# body atoms, form cycles and derive atoms that are also facts.
ground_atoms = st.builds(
    lambda pred, arg: Atom(pred, (arg,)), st.sampled_from("pqrs"), st.sampled_from("ab")
)
ground_rules = st.builds(
    lambda head, body, label: HornRule(head, tuple(body), label=label),
    ground_atoms,
    st.lists(ground_atoms, min_size=1, max_size=3),
    st.sampled_from(["r1", "r2"]),
)


def _rule(text: str, label: str = "r") -> HornRule:
    head, body = text.split(" :- ")
    return HornRule(logic.parse_atom(head), tuple(map(logic.parse_atom, body.split(", "))), label)


@settings(max_examples=300)
@given(facts=st.lists(ground_atoms, max_size=5), rules_=st.lists(ground_rules, max_size=8))
# Duplicate body atoms, a duplicated rule, a head that is a fact, a cycle,
# and a rule that never fires.
@example(
    facts=[Atom("p", ("a",)), Atom("q", ("a",))],
    rules_=[
        _rule("r(a) :- p(a), p(a)"),
        _rule("r(a) :- p(a), p(a)"),
        _rule("q(a) :- r(a)"),
        _rule("s(a) :- r(a)"),
        _rule("r(a) :- s(a)"),
        _rule("s(b) :- p(b), r(a)"),
    ],
)
def test_saturate_is_the_least_model(facts, rules_):
    _assert_least_model(saturate(LogicProgram(tuple(facts), tuple(rules_))), facts, rules_)


def test_analyze_saturates_once_in_the_grounder(store, monkeypatch):
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    counted(reasoner, "saturate")
    counted(pipeline, "saturate")
    counted(rules, "ground_static_rules")
    result = analyze(load_fixture_config("system37"), store)
    assert result.graph.goal_nodes
    assert calls == {"ground_static_rules": 1}


@pytest.mark.parametrize("home", HOMES, ids=_home_id)
def test_ground_rules_match_earlier_grounder(home, store, monkeypatch):
    result, ((library, facts, domains, ground, *_), fired) = _analyze_recording_evaluation(
        home, store, monkeypatch
    )
    assert fired
    want_fired, want_derived = oracles.fired_library_instances(library, facts, ground, domains)
    assert _fired_set(fired) == want_fired
    assert len(fired) == len(want_fired)
    assert saturate(result.compiled.program).derived == want_derived


@pytest.mark.parametrize("home", HOMES, ids=_home_id)
def test_compiled_rules_are_variable_free(home, store, monkeypatch):
    result, _ = _analyze_recording_evaluation(home, store, monkeypatch)
    program = result.compiled.program
    assert program.rules
    for rule in program.rules:
        assert not oracles.rule_variables(rule), rule.render()
        assert not rule.variables(), rule.render()
    # Nothing checks the compiled facts: compile_system builds them ground.
    assert program.facts
    for fact in program.facts:
        assert not oracles.atom_variables(fact), fact.render()
        assert fact.is_ground(), fact.render()


@pytest.mark.parametrize("home", HOMES, ids=_home_id)
def test_grounding_fills_templates_and_interns_atoms(home, store, monkeypatch):
    substitutions = []
    real_substitute = HornRule.substitute

    def counting(rule, binding):
        substitutions.append(rule)
        return real_substitute(rule, binding)

    monkeypatch.setattr(HornRule, "substitute", counting)
    result, (_, fired) = _analyze_recording_evaluation(home, store, monkeypatch)
    assert fired
    assert substitutions == []
    # The library instances are built over the evaluation's table: one
    # object per distinct atom, the fact's where the atom is a fact. The
    # exploit and app rules are the models' and apps' own, with their own
    # objects (test_rules.py).
    compiled = result.compiled
    atoms = [atom for rule in compiled.grounding.instances for atom in (rule.head, *rule.body)]
    _assert_one_object_per_atom(atoms, compiled.facts)
    assert set(fired) <= set(compiled.program.rules)


# Join shapes the static libraries do not have: a lookup on a later
# position, a variable repeated in one atom, constants and terms in join
# atoms, head terms whose variables' names sort against their slots, bodies
# that mix fact and derived atoms, a derived atom repeated in one body, a
# derivation that feeds itself, and the voice rules' command pool.
JOIN_RULES = (
    HornRule(
        Atom("probe", ("D",)),
        (Atom("wifi", ("N",)), Atom("inNetwork", ("D", "N"))),
        label="lookup on the second argument",
    ),
    HornRule(Atom("loop", ("D",)), (Atom("plugInto", ("D", "D")),), label="repeated variable"),
    HornRule(Atom("onWifi", ("D",)), (Atom("inNetwork", ("D", "w1")),), label="constant"),
    HornRule(
        Atom("reportsHigh", ("Z", "temperature", "dos(A, Z)")),
        (Atom("inNetwork", ("Z", "A")), Atom("outlet", ("A",))),
        label="constant and term in the head",
    ),
    HornRule(
        Atom("voiceCommand", ("Cmd", "D")),
        (Atom("lockedBy", ("D", "L")), Atom("lock", ("L",)), Atom("speaker", ("S",))),
        label="join and fallback pool",
        var_domains=(("Cmd", "commands"),),
    ),
    HornRule(
        Atom("hit", ("D", "X")),
        (Atom("vulProperty", ("D", "dos(d1)", "V")),),
        label="term compared as written",
        var_domains=(("X", "devices"),),
    ),
    HornRule(
        Atom("attackerInNetwork", ("N",)),
        (Atom("attackerRoot", ("D",)), Atom("inNetwork", ("D", "N"))),
        label="derived atom, then a fact",
    ),
    HornRule(
        Atom("attackerRoot", ("D",)),
        (
            Atom("inNetwork", ("D", "N")),
            Atom("attackerInNetwork", ("N",)),
            Atom("plugInto", ("D", "E")),
        ),
        label="fact, derived atom, fact: feeds the rule above",
    ),
    HornRule(
        Atom("pair", ("D", "E")),
        (Atom("attackerRoot", ("D",)), Atom("probe", ("E",)), Atom("attackerRoot", ("D",))),
        label="a derived atom twice",
    ),
    HornRule(
        Atom("voiceCommand", ("Cmd",)),
        (Atom("attackerRoot", ("V",)), Atom("speaker", ("V",))),
        label="controlled speaker plays voice commands",
        var_domains=(("Cmd", "commands"),),
    ),
    HornRule(
        Atom("speakerHears", ("Cmd",)),
        (Atom("voiceCommand", ("Cmd",)), Atom("speaker", ("S",))),
        label="a speaker hears played commands",
    ),
    # A constant is the only key of the later join atom, so the join looks
    # inNetwork up by it; it succeeds once attackerRoot is derived.
    HornRule(
        Atom("near", ("D", "E")),
        (Atom("attackerRoot", ("D",)), Atom("inNetwork", ("E", "w1"))),
        label="constant-keyed join",
    ),
    # Seed atoms that differ only in a constant: checked at the seed when
    # lockedBy seeds, and in the join, after the lookup by D, when
    # attackerRoot does.
    HornRule(
        Atom("latched", ("D",)),
        (Atom("lockedBy", ("D", "d1")), Atom("attackerRoot", ("D",))),
        label="latched by d1",
    ),
    HornRule(
        Atom("latched", ("D",)),
        (Atom("lockedBy", ("D", "w1")), Atom("attackerRoot", ("D",))),
        label="latched by w1",
    ),
    # One seed predicate under three patterns (a variable and two constants,
    # as the library's high/low channel rules have) and four guards, the
    # last one a whole scan; the third and fourth rules give instances of
    # the first and second, which keep the earlier rules' labels.
    HornRule(
        Atom("exposed", ("D",)),
        (Atom("attackerRoot", ("D",)), Atom("outlet", ("D",))),
        label="seed guarded by outlet",
    ),
    HornRule(
        Atom("exposed", ("D",)),
        (Atom("attackerRoot", ("D",)), Atom("lock", ("D",))),
        label="same seed guarded by lock",
    ),
    HornRule(
        Atom("exposed", ("d1",)),
        (Atom("attackerRoot", ("d1",)), Atom("outlet", ("d1",))),
        label="constant seed: an instance of the first rule",
    ),
    HornRule(
        Atom("exposed", ("w1",)),
        (Atom("attackerRoot", ("w1",)), Atom("lock", ("w1",))),
        label="other constant seed: an instance of the second rule",
    ),
    HornRule(
        Atom("exposed", ("w1",)),
        (Atom("attackerRoot", ("w1",)), Atom("speaker", ("S",))),
        label="other constant seed, unguarded",
    ),
)
FACT_ARITIES = {
    "wifi": 1, "outlet": 1, "lock": 1, "speaker": 1,
    "inNetwork": 2, "plugInto": 2, "lockedBy": 2, "vulProperty": 3,
}
CONSTANTS = ["d1", "w1", "dos(d1)"]


def _atoms_over(preds, arities):
    """Atoms over few constants, so joins meet; one in four is one argument short."""

    @st.composite
    def draw_atom(draw):
        pred = draw(st.sampled_from(preds))
        arity = arities[pred] - (arities[pred] > 0 and draw(st.integers(0, 3)) == 0)
        args = draw(st.lists(st.sampled_from(CONSTANTS), min_size=arity, max_size=arity))
        return Atom(pred, tuple(args))

    return draw_atom()


DERIVED_ARITIES = {"attackerRoot": 1, "attackerInNetwork": 1, "probe": 1, "speakerHears": 1}


@st.composite
def join_inputs(draw):
    """Facts, and ground rules in the exploit and app rules' place.

    Each ground rule makes the attacker root somewhere or plays a command.
    Its body mixes drawn facts, so it often holds, with atoms that only the
    library can derive.
    """

    facts = draw(st.lists(_atoms_over(sorted(FACT_ARITIES), FACT_ARITIES), min_size=3, max_size=16))
    heads = _atoms_over(["attackerRoot", "voiceCommand"], {"attackerRoot": 1, "voiceCommand": 1})
    derived = _atoms_over(sorted(DERIVED_ARITIES), DERIVED_ARITIES)
    body_atoms = st.one_of(st.sampled_from(facts), derived)
    ground = draw(
        st.lists(
            st.builds(
                lambda head, body: HornRule(head, tuple(body), label="ground"),
                heads,
                st.lists(body_atoms, min_size=1, max_size=3),
            ),
            max_size=4,
        )
    )
    return facts, ground


@settings(max_examples=150)
@given(
    inputs=join_inputs(),
    commands=st.lists(st.sampled_from(["c1", "c2"]), max_size=2, unique=True),
)
def test_join_shapes_match_earlier_grounder(inputs, commands):
    facts, ground = inputs
    domains = {"devices": ["d1", "d2"], "commands": commands}
    fired = reasoner.ground_static_rules(list(JOIN_RULES), facts, domains, ground)
    got = fired.saturation
    want_fired, want_derived = oracles.fired_library_instances(JOIN_RULES, facts, ground, domains)
    assert _fired_set(fired) == want_fired
    assert len(fired) == len(want_fired)
    assert oracles.least_model(facts, [*ground, *fired]) - set(facts) == want_derived
    _assert_least_model(got, facts, [*ground, *fired])
    _assert_one_object_per_atom(atom for rule in fired for atom in (rule.head, *rule.body))


# The base/derived split. The facts are all indexed before any seed runs. An
# atom seeds only if a library or ground rule heads its predicate, whether
# it is a fact or derived, and a rule whose body holds no such predicate is
# seeded from its first body atom over the facts.


def _assert_split_grounding(library, facts, ground, domains):
    """The grounder on these inputs fires what the earlier grounder fires, and
    its saturation is the naive least model of the facts and the firings."""

    grounding = reasoner.ground_static_rules(library, facts, domains, ground)
    want_fired, want_derived = oracles.fired_library_instances(library, facts, ground, domains)
    assert _fired_set(grounding) == want_fired
    assert len(grounding) == len(want_fired)
    _assert_least_model(grounding.saturation, facts, [*ground, *grounding])
    assert grounding.saturation.derived == want_derived
    return grounding


def _evaluation_inputs(config, store):
    """The facts, ground rules and pools ``compile_system`` evaluates the library over."""

    models = build_models(config, scan_devices(config, store))
    bound, _ = bind_apps(config)
    compiled = rules.compile_system(config, models, bound)
    alphabet = list(dict.fromkeys(cmd for b in bound for cmd in b.voice_commands))
    ground = [*compiled.exploit_rules, *compiled.app_rules]
    return list(compiled.facts), ground, {"commands": alphabet}


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), rnd=st.randoms(use_true_random=False))
def test_fact_order_does_not_change_the_grounding(n, seed, rnd, store):
    facts, ground, domains = _evaluation_inputs(synthesize(n, seed=seed), store)
    in_order = reasoner.ground_static_rules(rules.static_library(), facts, domains, ground)
    shuffled = rnd.sample(facts, len(facts))
    got = _assert_split_grounding(rules.static_library(), shuffled, ground, domains)
    assert _fired_set(got) == _fired_set(in_order)
    assert _known(got.saturation) == _known(in_order.saturation)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    with_ground=st.booleans(),
    data=st.data(),
)
def test_facts_of_derived_predicates_seed_the_library(n, seed, with_ground, data, store):
    config = synthesize(n, seed=seed)
    facts, ground, domains = _evaluation_inputs(config, store)
    if not with_ground:
        # Then nothing derives attackerRoot: its atoms are all facts.
        ground = []
    devices = [d.atom for d in config.devices]
    networks = [net.atom for net in config.networks]
    extra = st.one_of(
        st.builds(lambda d: Atom("attackerRoot", (d,)), st.sampled_from(devices)),
        st.builds(lambda d: Atom("on", (d,)), st.sampled_from(devices)),
        st.builds(lambda d: Atom("off", (d,)), st.sampled_from(devices)),
        st.builds(lambda net: Atom("attackerInNetwork", (net,)), st.sampled_from(networks)),
    )
    for atom in data.draw(st.lists(extra, min_size=1, max_size=4)):
        facts.insert(data.draw(st.integers(0, len(facts))), atom)
    _assert_split_grounding(rules.static_library(), facts, ground, domains)


def test_rule_over_base_facts_only_fires():
    facts = [Atom("wifi", ("wifi1",)), Atom("attackerRadioAdjacent", ("wifi1",))]
    fired = _assert_split_grounding(rules.static_library(), facts, [], {})
    assert [(r.label, r.head.render()) for r in fired] == [
        ("radio range grants physical adjacency", "attackerAdjacentPhysically(wifi1)")
    ]


# root and member are base predicates of these rules, but a drawn ground
# rule may derive root, which then seeds as well.
SPLIT_RULES = (
    _rule("reach(D) :- root(D)", "root reaches"),
    _rule("reach(D) :- link(D,E), reach(E)", "links reach"),
    _rule("near(N) :- radio(N)", "radio is near"),
    _rule("hop(D) :- member(D,N), near(N)", "members of near networks"),
    _rule("both(D) :- root(D), member(D,N)", "rooted member"),
    _rule("near(N) :- member(D,N), root(D)", "a rooted member's network is near"),
    _rule("both(D) :- member(D,N), root(D)", "rooted member, body reordered"),
)
SPLIT_ARITIES = {"root": 1, "link": 2, "radio": 1, "member": 2, "reach": 1, "near": 1}


@st.composite
def split_inputs(draw):
    """Facts over base and derivable predicates, and ground rules that may
    make root derivable."""

    atoms = _atoms_over(sorted(SPLIT_ARITIES), SPLIT_ARITIES)
    facts = draw(st.lists(atoms, min_size=1, max_size=12))
    heads = _atoms_over(["root", "reach", "near"], {"root": 1, "reach": 1, "near": 1})
    ground = draw(
        st.lists(
            st.builds(
                lambda head, body: HornRule(head, tuple(body), label="ground"),
                heads,
                st.lists(st.one_of(st.sampled_from(facts), atoms), min_size=1, max_size=2),
            ),
            max_size=3,
        )
    )
    return facts, ground


@settings(max_examples=200)
@given(inputs=split_inputs())
# Nothing derives root: five rules are seeded from their first atom only.
@example(
    inputs=(
        [Atom("root", ("d1",)), Atom("member", ("d1", "w1")), Atom("radio", ("w1",))],
        [],
    )
)
# A ground rule derives root, which is also given as a fact.
@example(
    inputs=(
        [Atom("root", ("d1",)), Atom("member", ("d1", "w1")), Atom("link", ("w1", "d1"))],
        [HornRule(Atom("root", ("w1",)), (Atom("member", ("d1", "w1")),), label="ground")],
    )
)
def test_base_only_rules_fire_whatever_the_ground_rules_derive(inputs):
    facts, ground = inputs
    _assert_split_grounding(SPLIT_RULES, facts, ground, {})


# What each rule of the test below gives on its facts: two rules rename one
# rule, one is its instance over a constant seed, one differs in the guard
# and one has a constant seed that never matches.
SHARED = ("on(s1)", ("attackerRoot(s1)", "speaker(s1)"))
GIVES = {
    "first": SHARED,
    "renamed": SHARED,
    "constant seed": SHARED,
    "other guard": ("on(s1)", ("attackerRoot(s1)", "lock(s1)")),
    "no match": None,
}


@pytest.mark.parametrize("seed", ["fact", "derived"])
def test_shared_instance_keeps_the_first_rules_label(seed):
    library = [
        _rule("on(D) :- attackerRoot(D), speaker(D)", "first"),
        _rule("on(X) :- attackerRoot(X), speaker(X)", "renamed"),
        _rule("on(s1) :- attackerRoot(s1), speaker(s1)", "constant seed"),
        _rule("on(D) :- attackerRoot(D), lock(D)", "other guard"),
        _rule("on(s2) :- attackerRoot(s2), speaker(s2)", "no match"),
    ]
    facts = [Atom("speaker", ("s1",)), Atom("lock", ("s1",)), Atom("attackerOnInternet")]
    if seed == "fact":
        facts.append(Atom("attackerRoot", ("s1",)))
        ground = []
    else:
        ground = [HornRule(Atom("attackerRoot", ("s1",)), (Atom("attackerOnInternet"),), label="g")]
    for order in itertools.permutations(library):
        fired = reasoner.ground_static_rules(order, facts, {}, ground)
        # Each instance once, in the order of the first rule that gives it,
        # with that rule's label.
        want = {}
        for rule in order:
            if GIVES[rule.label] is not None:
                want.setdefault(GIVES[rule.label], rule.label)
        got = [((r.head.render(), tuple(a.render() for a in r.body)), r.label) for r in fired]
        assert got == list(want.items())
        assert _fired_set(fired) == oracles.fired_library_instances(order, facts, ground, {})[0]


def test_unbound_variable_fails_as_before():
    # X is only inside a term, which joins compare as written.
    rule = HornRule(
        Atom("mystery", ("X", "D")),
        (Atom("inNetwork", ("D", "N")), Atom("probe", ("f(X)",))),
        label="unbindable",
    )
    facts = [Atom("inNetwork", ("lamp", "wifi1"))]
    # A failed compile is not kept: the same list fails again.
    for _ in range(2):
        with pytest.raises(LogicError) as new:
            reasoner.ground_static_rules([rule], facts, {})
    with pytest.raises(LogicError) as old:
        oracles.ground_static_rules([rule], facts, {})
    assert str(new.value) == str(old.value)
    # The evaluator checks each seed of a rule when it compiles it, before
    # any join; the earlier grounder only checked a rule that had a binding.
    with pytest.raises(LogicError):
        reasoner.ground_static_rules([rule], [], {})
    assert oracles.ground_static_rules([rule], [], {}) == []


def test_library_is_compiled_once_per_distinct_rule_list(store):
    reasoner._compile.cache_clear()
    config = load_fixture_config("system37")
    analyze(config, store)
    analyze(config, store)
    assert reasoner._compile.cache_info()[:2] == (1, 1)  # hits, misses

    # An equal list with the same derivable predicates finds the form already
    # compiled; a relabelled rule makes another list, and a ground rule with
    # another head another derivable set, each with its own compiled form.
    reasoner._compile.cache_clear()
    library = list(rules.static_library())
    facts = [Atom("attackerOnInternet"), Atom("inNetwork", ("cam1", "wifi1"))]
    ground = [HornRule(Atom("attackerRoot", ("cam1",)), (Atom("attackerOnInternet"),), "g")]
    fired = reasoner.ground_static_rules(list(library), facts, {}, ground)
    assert reasoner.ground_static_rules(list(library), facts, {}, ground).instance_rows == (
        fired.instance_rows
    )
    assert reasoner._compile.cache_info()[:2] == (1, 1)
    joins = library[1]
    library[1] = HornRule(joins.head, joins.body, label="relabelled")
    relabelled = reasoner.ground_static_rules(library, facts, {}, ground)
    assert reasoner._compile.cache_info()[:2] == (1, 2)
    dos = [*ground, HornRule(Atom("dos", ("cam1",)), (Atom("attackerOnInternet"),), "g")]
    reasoner.ground_static_rules(library, facts, {}, dos)
    assert reasoner._compile.cache_info()[:2] == (1, 3)
    assert joins.label in {r.label for r in fired}
    assert {r.label for r in relabelled} == {r.label for r in fired} - {joins.label} | {"relabelled"}
    for got, rules_ in ((fired, rules.static_library()), (relabelled, library)):
        assert _fired_set(got) == oracles.fired_library_instances(rules_, facts, ground, {})[0]


def _compiled_form(library):
    """A deep copy of ``library``'s compiled form, with each seed's head
    template and body pick by identity: a copied ``itemgetter`` compares
    unequal to its original."""

    def by_identity(seed):
        place, rest, pools, (pred, fill), body_of, label = seed
        return place, rest, pools, (pred, id(fill)), id(body_of), label

    seeds = {
        pred: [
            (*pattern, [(guard, [by_identity(seed) for seed in group]) for guard, group in guards])
            for *pattern, guards in by_pattern
        ]
        for pred, by_pattern in library.seeds.items()
    }
    fixed = ("filled", "pools", "index")
    return copy.deepcopy({"seeds": seeds, **{name: getattr(library, name) for name in fixed}})


def _heads(rules_):
    return frozenset(rule.head.pred for rule in rules_)


def _seed_labels(patterns):
    return [seed[-1] for *_, guards in patterns for _, group in guards for seed in group]


def test_compiled_library_is_fixed(store, monkeypatch):
    # The forms real analyses compile stay as they were built through later
    # evaluations, and a repeated analysis finds each in the cache. Their
    # derivable predicates hold the heads of the exploit and app rules too:
    # fig2's exploit rules head attackerRoot, which no library rule heads.
    reasoner._compile.cache_clear()
    calls, built = [], {}
    real = reasoner._compile

    def recording(library, derivable):
        compiled = real(library, derivable)
        calls.append((library, derivable, compiled))
        if id(compiled) not in built:
            bound = {name: id(value) for name, value in vars(compiled).items()}
            built[id(compiled)] = (_compiled_form(compiled), bound)
        return compiled

    monkeypatch.setattr(reasoner, "_compile", recording)
    configs = [load_fixture_config(name) for name in ("system37", "fig2")]
    for config in configs:
        result = analyze(config, store)
    used = list(calls)
    assert len(used) == len(configs)
    for library, derivable, form in used:
        assert _heads(library) <= derivable
        assert all(form.seeds.values())
    (_, system37, _), (library, fig2, _) = used
    assert "attackerRoot" in fig2 - _heads(library) - system37

    saturate(result.compiled.program)
    body_preds = {atom.pred for rule in rules.static_library() for atom in rule.body}
    assert "unread" not in body_preds
    ground = [HornRule(Atom("unread", ("cam1",)), (Atom("attackerOnInternet"),), "g")]
    facts = [Atom("attackerOnInternet")]
    assert not reasoner.ground_static_rules(rules.static_library(), facts, {}, ground)
    assert not reasoner.ground_static_rules(rules.static_library(), facts, {})
    calls.clear()
    for config in configs:
        analyze(config, store)
    assert [id(form) for *_, form in calls] == [id(form) for *_, form in used]

    for library, derivable, form in used:
        snapshot, bound = built[id(form)]
        assert real(library, derivable) is form
        assert _compiled_form(form) == snapshot
        assert {name: id(value) for name, value in vars(form).items()} == bound


def test_facts_seed_through_one_table():
    """Facts and derived atoms run one table: a predicate some rule heads
    has a seed for each body atom of it, and any other predicate only the
    seeds of the rules it starts whose bodies hold no derivable predicate."""

    library = rules.static_library()
    heads = _heads(library)
    compiled = reasoner._Library(library, heads)
    body_preds = {atom.pred for rule in library for atom in rule.body}
    base = {"attackerRoot", "attackerRadioAdjacent", "dos"}
    assert compiled.seeds.keys() == (heads & body_preds) | base
    for pred in heads & body_preds:
        atoms = [a for rule in library for a in rule.body if a.pred == pred]
        assert len(_seed_labels(compiled.seeds[pred])) == len(atoms)
    labels = {pred: _seed_labels(compiled.seeds[pred]) for pred in base}
    assert labels == {
        "attackerRoot": [
            "root grants device control",
            "root grants local access",
            "rooted device joins its networks",
        ],
        "attackerRadioAdjacent": ["radio range grants physical adjacency"],
        "dos": ["denial of service turns the device off"],
    }
    first = {rule.label: rule.body[0].pred for rule in library}
    assert all(first[label] == pred for pred, group in labels.items() for label in group)

    # The same atom, given or derived, runs the same seeds.
    facts = [
        Atom("attackerOnInternet"), Atom("camera", ("cam1",)), Atom("inNetwork", ("cam1", "wifi1"))
    ]
    root = Atom("attackerRoot", ("cam1",))
    given = reasoner.ground_static_rules(library, [*facts, root], {}, [])
    derived = reasoner.ground_static_rules(
        library, facts, {}, [HornRule(root, (Atom("attackerOnInternet"),), "g")]
    )
    assert _fired_set(given) == _fired_set(derived)
    assert "rooted device joins its networks" in {r.label for r in given}


# Predicates that no join of a seed of a derivable predicate looks up: only
# seeds of base predicates, which never run, would index them.
UNREAD = ("on", "off", "attackerRoot", "attackerDeviceControl", "attackerEventAccess", "high", "low")


@pytest.mark.parametrize("home", [("system37", None), (60, 7)], ids=_home_id)
def test_library_is_seeded_from_derivable_predicates(home, store, monkeypatch):
    calls = []
    real = reasoner._compile

    def recording(library, derivable):
        compiled = real(library, derivable)
        calls.append((library, derivable, compiled))
        return compiled

    monkeypatch.setattr(reasoner, "_compile", recording)
    analyze(_config(home), store)
    [(library, derivable, compiled)] = calls
    assert _heads(library) <= derivable
    seeded = {atom.pred for rule in library for atom in rule.body if atom.pred in derivable}
    seeded |= {
        rule.body[0].pred
        for rule in library
        if not any(atom.pred in derivable for atom in rule.body)
    }
    assert compiled.seeds.keys() == seeded
    assert not compiled.index.keys() & set(UNREAD), compiled.index


def test_seeds_compiled_by_a_later_call_are_indexed():
    # Only a seed of attackerInNetwork looks inNetwork up by its network. The
    # first call derives no such atom; the second derives one, and the facts
    # are indexed at that position because the second call compiles the
    # library with attackerInNetwork derivable, so the lookup finds them.
    library = [
        HornRule(
            Atom("reached", ("D",)),
            (Atom("inNetwork", ("D", "N")), Atom("attackerInNetwork", ("N",))),
            label="member of a reached network",
        )
    ]
    facts = [Atom("attackerOnInternet"), Atom("inNetwork", ("cam1", "wifi1"))]
    ground = [HornRule(Atom("attackerInNetwork", ("wifi1",)), (Atom("attackerOnInternet"),), "g")]
    assert not reasoner.ground_static_rules(library, facts, {})
    fired = reasoner.ground_static_rules(library, facts, {}, ground)
    assert [r.head.render() for r in fired] == ["reached(cam1)"]


def test_predicate_at_two_arities_joins_on_keyed_positions():
    # link/2 is looked up at positions 0 and 1, link/1 at position 0. Atoms of
    # both arities share the position-0 index, and link/1 has no position 1.
    library = [
        HornRule(
            Atom("hop", ("E",)),
            (Atom("attackerRoot", ("D",)), Atom("link", ("D", "E")), Atom("link", ("E",))),
            label="forward",
        ),
        HornRule(
            Atom("back", ("D",)),
            (Atom("attackerRoot", ("E",)), Atom("link", ("D", "E"))),
            label="backward",
        ),
    ]
    links = [("a", "b"), ("b",), ("a",), ("c", "a"), ("b", "c")]
    facts = [Atom("link", args) for args in links] + [Atom("attackerOnInternet")]
    facts.append(Atom("attackerRoot", ("c",)))
    ground = [HornRule(Atom("attackerRoot", ("a",)), (Atom("attackerOnInternet"),), "g")]
    fired = reasoner.ground_static_rules(library, facts, {}, ground)
    assert _fired_set(fired) == oracles.fired_library_instances(library, facts, ground, {})[0]
    assert sorted(r.head.render() for r in fired) == ["back(b)", "back(c)", "hop(a)", "hop(b)"]


@pytest.mark.parametrize("library", [rules.static_library(), JOIN_RULES], ids=["static", "join"])
def test_seeded_joins_look_up_bound_atoms_first(library):
    """No seed scans a predicate whole while an atom left in its join has an
    argument bound in a slot (a constant or an already-bound variable) to
    look it up by."""

    # Every predicate derivable: each body atom of each rule is a seed.
    preds = {atom.pred for rule in library for atom in (rule.head, *rule.body)}
    compiled = reasoner._Library(tuple(library), frozenset(preds))
    scans = 0
    for by_pattern in compiled.seeds.values():
        for _, consts, new, _, guards in by_pattern:
            for seed in (seed for _, group in guards for seed in group):
                # Each joined atom binds its new variables, then its id.
                rest, bound = seed[1], len(consts) + len(new) + 1
                for k, (_, _, binds, _, lookup) in enumerate(rest):
                    if lookup is None:
                        scans += 1
                        # Slots are numbered in the order the join binds them,
                        # after the constants.
                        # A join's lookup is a check it makes by its index.
                        for pred, _, _, checks, looked_up in rest[k:]:
                            checks = (*checks, looked_up) if looked_up else checks
                            assert not any(c < bound for _, c in checks), (seed[-1], pred)
                    bound += len(binds) + 1
    assert scans


def _counting_extend(counts):
    """``reasoner._extend``, adding the candidates each join scans to ``counts``.

    Its loop is copied here to count, and its bindings are checked against
    the real one's.
    """

    real = reasoner._extend

    def extend(bindings, joins, by_pred, by_position, arglist):
        want = real(bindings, joins, by_pred, by_position, arglist)
        for pred, arity, new, checks, lookup in joins:
            extended = []
            for b in bindings:
                if lookup is None:
                    pool = by_pred.get(pred, ())
                else:
                    pool = by_position.get((pred, lookup[0], b[lookup[1]]), ())
                counts["candidates"] += len(pool)
                for i in pool:
                    fa = arglist[i]
                    if len(fa) != arity:
                        continue
                    nb = b + tuple(fa[pos] for pos in new) + (i,)
                    if all(fa[pos] == nb[c] for pos, c in checks):
                        extended.append(nb)
            bindings = extended
            if not bindings:
                break
        assert bindings == want
        return want

    return extend


def test_join_candidates_grow_linearly_with_the_home(dense4_store, monkeypatch):
    # The seeded lock(L)/unlock(L) join of the opener rules once scanned every
    # attackerCommandInjection atom, so doubling the home more than tripled
    # the candidates.
    counts = Counter()
    monkeypatch.setattr(reasoner, "_extend", _counting_extend(counts))
    scanned = {}
    for devices in (320, 640):
        config = synthesize(devices, seed=1)
        models = build_models(config, scan_devices(config, dense4_store))
        bound, _ = bind_apps(config)
        counts.clear()
        rules.compile_system(config, models, bound)
        scanned[devices] = counts["candidates"]
    assert 0 < scanned[320]
    assert scanned[640] <= 2.2 * scanned[320], scanned


identifiers = st.from_regex(r"[a-z][A-Za-z0-9_]{0,6}", fullmatch=True)
variables = st.from_regex(r"[A-Z][A-Za-z0-9_]{0,6}", fullmatch=True)
cve_ids = st.from_regex(r"CVE-[0-9]{4}-[0-9]{4,5}", fullmatch=True)
terms = st.builds(
    lambda functor, inner: f"{functor}({', '.join(inner)})",
    identifiers,
    st.lists(st.one_of(identifiers, variables, cve_ids), max_size=3),
)
shaped = st.one_of(identifiers, variables, cve_ids, terms)
arguments = st.one_of(
    st.text(),
    st.text(alphabet="aZ9_(), \n'-"),
    shaped,
    shaped.map(lambda s: s + "\n"),
)


# Edges of the ASCII-identifier fast path that runs ahead of the regex: "$"
# accepts a final newline and isidentifier does not; "_" starts an
# identifier but no bare argument; "Ab" is an ASCII variable; non-ASCII, titlecase, uppercase and
# fullwidth letters pass isidentifier but not isascii; then the empty string
# and arguments that only the regex decides.
FAST_PATH_EDGES = (
    "abc\n", "_a", "Ab", "café", "ǅx", "Éb", "ａb", "", "a-b", "rootPrivilege(d)", "CVE-2019-1"
)


def at_fast_path_edges(inputs=lambda arg: {"arg": arg}):
    """An ``@example`` for each ``FAST_PATH_EDGES`` argument, ``inputs`` giving its inputs."""

    def apply(test):
        for arg in FAST_PATH_EDGES:
            test = example(**inputs(arg))(test)
        return test

    return apply


@settings(max_examples=200)
@given(arg=arguments)
@at_fast_path_edges()
def test_render_arg_and_variables_agree(arg):
    text = oracles.render_arg(arg)
    assert logic.render_arg(arg) == text
    assert Atom("p", (arg, arg)).render() == f"p({text}, {text})"
    assert logic.arg_variables(arg) == oracles.arg_variables(arg)
    assert logic.is_variable(arg) == oracles.is_variable(arg)


@settings(max_examples=200)
@given(args=st.lists(arguments, max_size=4).map(tuple))
@example(args=("CVE-2019-1",))
@example(args=("X1",))
@example(args=("dos(D)", "cam1"))
@example(args=("dos(cam1)", "CVE-2019-1", "Cam"))
@at_fast_path_edges(lambda arg: {"args": (arg,)})
def test_is_ground_agrees_with_variables(args):
    atom = Atom("p", args)
    assert atom.is_ground() == (not atom.variables())


@settings(max_examples=200)
@given(
    arg=arguments,
    values=st.lists(st.one_of(identifiers, st.text(max_size=4)), max_size=4),
    extra=st.dictionaries(st.one_of(variables, st.text(max_size=3)), identifiers, max_size=3),
)
@at_fast_path_edges(lambda arg: {"arg": arg, "values": ["v"], "extra": {"Ab": "w", "_a": "x"}})
def test_substitute_arg_agrees(arg, values, extra):
    binding = dict(extra)
    binding.update(zip(sorted(oracles.arg_variables(arg)), values))
    assert logic.substitute_arg(arg, binding) == oracles.substitute_arg(arg, binding)


@settings(max_examples=200)
@given(args=st.lists(arguments, max_size=4).map(tuple), data=st.data())
def test_args_template_fills_like_substitute(args, data):
    names = sorted(set().union(*map(oracles.arg_variables, args)))
    values = tuple(data.draw(st.lists(identifiers, min_size=len(names), max_size=len(names))))
    fill = logic.args_template(args, {name: i for i, name in enumerate(names)})
    binding = dict(zip(names, values))
    assert fill(values) == tuple(oracles.substitute_arg(a, binding) for a in args)


@given(pred=st.one_of(st.text(), identifiers, identifiers.map(lambda s: s + "\n")))
def test_predicate_names_accepted_as_before(pred):
    accepted = bool(pred) and bool(re.match(r"^[a-z][A-Za-z0-9_]*$", pred))
    try:
        Atom(pred)
    except LogicError:
        assert not accepted
    else:
        assert accepted
