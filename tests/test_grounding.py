"""Grounding and the argument syntax against the earlier implementation.

``oracles.ground_static_rules`` and the argument functions next to it are
copies of the grounder that re-derived each rule's variables per binding and
classified arguments with separate regular expressions. The package fills
per-rule templates instead and must produce the same ground rules in the
same order, and the same text, variables and substitutions for any argument
string.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from iotgraph import logic, rules
from iotgraph.logic import Atom, HornRule, LogicError
from iotgraph.pipeline import analyze
from iotgraph.synth import synthesize

from conftest import load_fixture_config

FIXTURES = ("fig2", "hall_light", "listing10", "system28", "system37")
SYNTH_HOMES = ((12, 1), (60, 7), (60, 20260816), (200, 3))
HOMES = [(name, None) for name in FIXTURES] + list(SYNTH_HOMES)


def _config(home):
    name, seed = home
    if seed is None:
        return load_fixture_config(name)
    return synthesize(name, seed=seed)


def _home_id(home):
    name, seed = home
    return name if seed is None else f"synth{name}-{seed}"


def _analyze_recording_grounding(home, store, monkeypatch):
    """Analyse ``home`` and return the result and what grounding was given."""

    calls = []
    real = rules.ground_static_rules

    def recording(library, facts, domains):
        grounded = real(library, facts, domains)
        calls.append((library, facts, domains, grounded))
        return grounded

    monkeypatch.setattr(rules, "ground_static_rules", recording)
    result = analyze(_config(home), store)
    assert len(calls) == 1
    return result, calls[0]


@pytest.mark.parametrize("home", HOMES, ids=_home_id)
def test_ground_rules_match_earlier_grounder(home, store, monkeypatch):
    _, (library, facts, domains, grounded) = _analyze_recording_grounding(
        home, store, monkeypatch
    )
    assert grounded
    assert grounded == oracles.ground_static_rules(library, facts, domains)


@pytest.mark.parametrize("home", HOMES, ids=_home_id)
def test_compiled_rules_are_variable_free(home, store, monkeypatch):
    result, _ = _analyze_recording_grounding(home, store, monkeypatch)
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
    _, (_, facts, _, grounded) = _analyze_recording_grounding(home, store, monkeypatch)
    assert grounded
    assert substitutions == []
    objects: dict[Atom, set[int]] = {}
    for rule in grounded:
        for atom in (rule.head, *rule.body):
            objects.setdefault(atom, set()).add(id(atom))
    assert all(len(ids) == 1 for ids in objects.values())
    # Ground atoms that are facts are the fact objects themselves.
    fact_ids = {f: id(f) for f in reversed(facts)}
    assert all(ids == {fact_ids[a]} for a, ids in objects.items() if a in fact_ids)


# Join shapes the static libraries do not have: a lookup on a later
# position, a variable repeated in one atom, constants and terms in join
# atoms, and head terms whose variables' names sort against their slots.
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
)
FACT_ARITIES = {
    "wifi": 1, "outlet": 1, "lock": 1, "speaker": 1,
    "inNetwork": 2, "plugInto": 2, "lockedBy": 2, "vulProperty": 3,
}


@st.composite
def join_facts(draw):
    """Facts over few constants, so joins meet; one in four is one argument short."""

    facts = []
    for pred in draw(st.lists(st.sampled_from(sorted(FACT_ARITIES)), min_size=3, max_size=16)):
        arity = FACT_ARITIES[pred] - (draw(st.integers(0, 3)) == 0)
        constants = st.sampled_from(["d1", "w1", "dos(d1)"])
        args = draw(st.lists(constants, min_size=arity, max_size=arity))
        facts.append(Atom(pred, tuple(args)))
    return facts


@settings(max_examples=150)
@given(
    facts=join_facts(),
    commands=st.lists(st.sampled_from(["c1", "c2"]), max_size=2, unique=True),
)
def test_join_shapes_match_earlier_grounder(facts, commands):
    domains = {"devices": ["d1", "d2"], "commands": commands}
    grounded = rules.ground_static_rules(list(JOIN_RULES), facts, domains)
    assert grounded == oracles.ground_static_rules(list(JOIN_RULES), facts, domains)
    objects = {}
    for rule in grounded:
        for atom in (rule.head, *rule.body):
            assert objects.setdefault(atom, atom) is atom


def test_unbound_variable_fails_as_before():
    rule = HornRule(
        Atom("mystery", ("X", "D")),
        (Atom("inNetwork", ("D", "N")), Atom("probe", ("X",))),
        label="unbindable",
    )
    facts = [Atom("inNetwork", ("lamp", "wifi1"))]
    with pytest.raises(LogicError) as new:
        rules.ground_static_rules([rule], facts, {})
    with pytest.raises(LogicError) as old:
        oracles.ground_static_rules([rule], facts, {})
    assert str(new.value) == str(old.value)
    # Without a binding from the join, neither grounder reaches the check.
    assert rules.ground_static_rules([rule], [], {}) == []
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
