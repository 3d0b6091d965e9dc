from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotgraph.logic import (
    Atom,
    HornRule,
    LogicError,
    LogicProgram,
    parse_atom,
    render_arg,
)
from iotgraph.reasoner import saturate

lower_names = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,8}", fullmatch=True)
upper_names = st.from_regex(r"[A-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)
cve_ids = st.from_regex(r"CVE-[0-9]{4}-[0-9]{4,5}", fullmatch=True)
terms = st.builds(
    lambda functor, inner: f"{functor}({', '.join(inner)})",
    lower_names,
    st.lists(st.one_of(lower_names, upper_names, cve_ids), max_size=3),
)
atom_args = st.lists(st.one_of(lower_names, upper_names, terms, cve_ids), max_size=4).map(tuple)


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
    assert HornRule(Atom("smoke"), (Atom("fire"),)).render() == "smoke :-\n    fire."


def test_program_rejects_fact_that_is_not_ground():
    # Saturation checks a program built elsewhere; LogicProgram itself is a record.
    with pytest.raises(LogicError, match="fact is not ground: on"):
        saturate(LogicProgram(facts=(Atom("on", ("D",)),), rules=()))
    with pytest.raises(LogicError, match="fact is not ground"):
        saturate(LogicProgram(facts=(Atom("vulProperty", ("CVE-2019-1", "dos(D)")),), rules=()))


def test_program_holds_facts_and_rules():
    rule = HornRule(Atom("b", ("x",)), (Atom("a", ("x",)),))
    program = LogicProgram(facts=(Atom("a", ("x",)),), rules=(rule,))
    assert len(program.facts) == 1
    assert len(program.rules) == 1


@given(pred=lower_names, args=atom_args)
def test_atoms_hash_equal_whether_fresh_or_interned(pred, args):
    fresh, again, interned = Atom(pred, args), Atom(pred, list(args)), Atom.instance(pred, args)
    assert fresh == again == interned
    assert hash(fresh) == hash(again) == hash(interned) == hash((pred, args))


@given(pred=lower_names, args=atom_args)
def test_render_is_cached_and_equals_uncached_text(pred, args):
    uncached = f"{pred}({', '.join(render_arg(a) for a in args)})" if args else pred
    for atom in (Atom(pred, args), Atom.instance(pred, args)):
        first = atom.render()
        assert first == uncached
        assert atom.render() is first


@given(pred=lower_names, args=atom_args)
def test_equality_and_repr_ignore_cache_fields(pred, args):
    rendered, fresh = Atom(pred, args), Atom(pred, args)
    rendered.render()
    assert rendered == fresh
    assert repr(rendered) == repr(fresh) == f"Atom(pred={pred!r}, args={args!r})"


@given(pred=lower_names, args=atom_args)
def test_fresh_atoms_find_interned_ones(pred, args):
    interned = Atom.instance(pred, args)
    interned.render()
    table = {interned: "interned"}
    assert table[Atom(pred, args)] == "interned"
    assert Atom(pred, args) in {interned}
    assert Atom(pred, args + ("extra",)) not in table


def test_rule_instance_equals_substituted_rule():
    rule = HornRule(
        Atom("open", ("Door",)),
        (Atom("doorOpener", ("Door",)), Atom("smoke")),
        label="vent",
        var_domains=(("Door", "devices"),),
    )
    head, body = Atom.instance("open", ("d1",)), (Atom("doorOpener", ("d1",)), Atom("smoke"))
    instance = HornRule.instance(head, body, "vent")
    assert instance == rule.substitute({"Door": "d1"})
    assert instance.var_domains == ()
    assert hash(instance) == hash(rule.substitute({"Door": "d1"}))
