from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotgraph.logic import Atom, HornRule, LogicError, LogicProgram, parse_atom, render_fact

lower_names = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,8}", fullmatch=True)
upper_names = st.from_regex(r"[A-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)


def test_parse_atom_basic():
    atom = parse_atom("inNetwork(dLinkRouter, wifi1)")
    assert atom.pred == "inNetwork"
    assert atom.args == ("dLinkRouter", "wifi1")


def test_parse_atom_zero_arity():
    assert parse_atom("attackerOnInternet") == Atom("attackerOnInternet")
    assert parse_atom("smoke()") == Atom("smoke")


def test_parse_atom_trailing_period():
    assert parse_atom("wifi(wifi1).") == Atom("wifi", ("wifi1",))


def test_parse_atom_quoted_argument():
    atom = parse_atom("vulExists(dLinkRouter, 'CVE-2020-8864')")
    assert atom.args == ("dLinkRouter", "CVE-2020-8864")
    assert atom.render() == "vulExists(dLinkRouter, 'CVE-2020-8864')"


def test_parse_atom_nested_term_argument():
    atom = parse_atom("vulProperty('CVE-1', wifiAdjacentLogically(wifi1), rootPrivilege(d))")
    assert atom.args[1] == "wifiAdjacentLogically(wifi1)"
    assert atom.render() == "vulProperty('CVE-1', wifiAdjacentLogically(wifi1), rootPrivilege(d))"


def test_parse_atom_rejects_garbage():
    for bad in ("", "InNetwork(a", "f(a,)", "1abc(x)"):
        with pytest.raises(LogicError):
            parse_atom(bad)


@given(pred=lower_names, args=st.lists(lower_names, max_size=3))
def test_atom_render_parse_round_trip(pred, args):
    atom = Atom(pred, tuple(args))
    assert parse_atom(atom.render()) == atom


def test_variables_detected_in_plain_and_inner_positions():
    atom = parse_atom("vulProperty('CVE-1', wifiAccess(N2), dos(D))")
    assert atom.variables() == {"N2", "D"}
    ground = atom.substitute({"N2": "wifi1", "D": "router"})
    assert ground.render() == "vulProperty('CVE-1', wifiAccess(wifi1), dos(router))"
    assert ground.is_ground()


def test_constant_camel_case_is_not_a_variable():
    atom = parse_atom("router(dLinkRouter)")
    assert atom.variables() == set()
    assert atom.is_ground()


@given(var=upper_names, value=lower_names)
def test_substitute_then_ground(var, value):
    atom = Atom("reaches", (var, "home"))
    assert atom.substitute({var: value}) == Atom("reaches", (value, "home"))


def test_rule_requires_non_empty_body():
    with pytest.raises(LogicError):
        HornRule(Atom("a"), ())


def test_rule_range_restriction_rejects_loose_head_variable():
    with pytest.raises(LogicError, match="range-restricted"):
        HornRule(Atom("on", ("D",)), (Atom("smoke"),))


def test_rule_range_restriction_accepts_domain_bound_variable():
    rule = HornRule(
        Atom("voiceCommand", ("Cmd",)),
        (Atom("attackerDeviceControl", ("tv1",)),),
        var_domains=(("Cmd", "commands"),),
    )
    assert rule.head.variables() == {"Cmd"}


def test_rule_substitute_and_render():
    rule = HornRule(
        Atom("open", ("Door",)),
        (Atom("doorOpener", ("Door",)), Atom("smoke")),
        label="vent",
    )
    ground = rule.substitute({"Door": "d1"})
    assert not ground.variables()
    assert ground.render() == "open(d1) :-\n    doorOpener(d1),\n    smoke."


def test_render_fact_appends_period():
    assert render_fact(Atom("wifi", ("wifi1",))) == "wifi(wifi1)."


def test_program_holds_facts_and_rules():
    rule = HornRule(Atom("b", ("x",)), (Atom("a", ("x",)),))
    program = LogicProgram(facts=(Atom("a", ("x",)),), rules=(rule,))
    assert len(program.facts) == 1
    assert len(program.rules) == 1
