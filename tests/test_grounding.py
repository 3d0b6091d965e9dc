"""Grounding and the argument syntax against the earlier implementation.

``oracles.ground_static_rules`` and the argument functions next to it are
copies of the grounder that re-derived each rule's variables per binding and
classified arguments with separate regular expressions. The package must
produce the same ground rules in the same order, and the same text, variables
and substitutions for any argument string.
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


@given(pred=st.one_of(st.text(), identifiers, identifiers.map(lambda s: s + "\n")))
def test_predicate_names_accepted_as_before(pred):
    accepted = bool(pred) and bool(re.match(r"^[a-z][A-Za-z0-9_]*$", pred))
    try:
        Atom(pred)
    except LogicError:
        assert not accepted
    else:
        assert accepted
