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

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from iotgraph import logic, pipeline, rules
from iotgraph.logic import Atom, HornRule, LogicError, LogicProgram
from iotgraph.model import parse_config
from iotgraph.pipeline import analyze, bind_apps, build_models, scan_devices
from iotgraph.reasoner import SaturationResult
from iotgraph.rules import saturate
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
    assert got.known == model
    assert got.derived == model - set(facts)
    want = [rule for rule in program_rules if all(a in model for a in rule.body)]
    assert Counter(_firings(got.fired)) == Counter(_firings(want))
    # The index names each firing once, under its own head.
    assert sorted(i for ids in got.fired_by_head.values() for i in ids) == list(range(len(got.fired)))
    for head, ids in got.fired_by_head.items():
        assert all(got.fired[i].head == head for i in ids)


def _firings(fired):
    return [(rule.head, rule.body, rule.label) for rule in fired]


def _compile_saturating(config, store):
    """The compiled system of ``config`` and the saturation its grounding recorded."""

    models = build_models(config, scan_devices(config, store))
    bound, _ = bind_apps(config)
    saturation = SaturationResult()
    return rules.compile_system(config, models, bound, saturation=saturation), saturation


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


def _rule(text: str) -> HornRule:
    head, body = text.split(" :- ")
    return HornRule(logic.parse_atom(head), tuple(map(logic.parse_atom, body.split(", "))), "r")


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

    counted(rules, "saturate")
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
    # One table for the whole program: exploit, library and app rule atoms
    # alike are the fact objects or one shared object per derived atom.
    program = result.compiled.program
    atoms = [atom for rule in program.rules for atom in (rule.head, *rule.body)]
    _assert_one_object_per_atom(atoms, program.facts)
    assert set(fired) <= set(program.rules)


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
    got = SaturationResult()
    fired = rules.ground_static_rules(list(JOIN_RULES), facts, domains, ground, saturation=got)
    want_fired, want_derived = oracles.fired_library_instances(JOIN_RULES, facts, ground, domains)
    assert _fired_set(fired) == want_fired
    assert len(fired) == len(want_fired)
    assert oracles.least_model(facts, [*ground, *fired]) - set(facts) == want_derived
    _assert_least_model(got, facts, [*ground, *fired])
    _assert_one_object_per_atom(atom for rule in fired for atom in (rule.head, *rule.body))


@pytest.mark.parametrize("seed", ["fact", "derived"])
def test_shared_instance_keeps_the_first_rules_label(seed):
    body = (Atom("attackerRoot", ("D",)), Atom("speaker", ("D",)))
    library = [
        HornRule(Atom("on", ("D",)), body, label="first"),
        HornRule(Atom("on", ("X",)), tuple(a.substitute({"D": "X"}) for a in body), label="second"),
    ]
    facts = [Atom("speaker", ("s1",)), Atom("attackerOnInternet")]
    if seed == "fact":
        facts.append(Atom("attackerRoot", ("s1",)))
        ground = []
    else:
        ground = [HornRule(Atom("attackerRoot", ("s1",)), (Atom("attackerOnInternet"),), label="g")]
    for order in (library, library[::-1]):
        fired = rules.ground_static_rules(order, facts, {}, ground)
        assert [(r.head.render(), r.label) for r in fired] == [("on(s1)", order[0].label)]


def test_unbound_variable_fails_as_before():
    # X is only inside a term, which joins compare as written.
    rule = HornRule(
        Atom("mystery", ("X", "D")),
        (Atom("inNetwork", ("D", "N")), Atom("probe", ("f(X)",))),
        label="unbindable",
    )
    facts = [Atom("inNetwork", ("lamp", "wifi1"))]
    with pytest.raises(LogicError) as new:
        rules.ground_static_rules([rule], facts, {})
    with pytest.raises(LogicError) as old:
        oracles.ground_static_rules([rule], facts, {})
    assert str(new.value) == str(old.value)
    # The evaluator checks each rule when it compiles its plan, before any
    # join; the earlier grounder only checked a rule that had a binding.
    with pytest.raises(LogicError):
        rules.ground_static_rules([rule], [], {})
    assert oracles.ground_static_rules([rule], [], {}) == []


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


@settings(max_examples=200)
@given(arg=arguments)
def test_render_arg_and_variables_agree(arg):
    assert logic.render_arg(arg) == oracles.render_arg(arg)
    assert logic.arg_variables(arg) == oracles.arg_variables(arg)
    assert logic.is_variable(arg) == oracles.is_variable(arg)


@settings(max_examples=200)
@given(args=st.lists(arguments, max_size=4).map(tuple))
@example(args=("CVE-2019-1",))
@example(args=("X1",))
@example(args=("dos(D)", "cam1"))
@example(args=("dos(cam1)", "CVE-2019-1", "Cam"))
def test_is_ground_agrees_with_variables(args):
    atom = Atom("p", args)
    assert atom.is_ground() == (not atom.variables())


@settings(max_examples=200)
@given(
    arg=arguments,
    values=st.lists(st.one_of(identifiers, st.text(max_size=4)), max_size=4),
    extra=st.dictionaries(st.one_of(variables, st.text(max_size=3)), identifiers, max_size=3),
)
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
