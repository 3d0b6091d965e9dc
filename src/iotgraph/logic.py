"""Horn-clause representation and the clause text syntax.

Atoms are ``predicate(arg, ...)`` with string arguments. Predicates and
constants are identifiers (``[a-z][A-Za-z0-9_]*``), variables the same with
an uppercase first letter; a term-shaped argument (``dos(D)``) may hold
variables and renders bare like them, other arguments (CVE ids) render
single-quoted. Static rule libraries carry variables, everything the reasoner
consumes is ground; range restriction is checked where a head has variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class LogicError(ValueError):
    """Malformed atom, rule, or program."""


_IDENT = r"[a-z][A-Za-z0-9_]*"
_VAR = r"[A-Z][A-Za-z0-9_]*"
_IDENTIFIER = re.compile(rf"^{_IDENT}$")
_INNER_VARIABLE = re.compile(rf"\b{_VAR}\b")
# What renders bare: a variable, a term or an identifier. ``_shape`` gives
# "var" or "term" for the first two and None for anything else.
_BARE_ARG = re.compile(rf"^(?:(?P<var>{_VAR})|(?P<term>{_IDENT}\([A-Za-z0-9_, ]*\))|{_IDENT})$")


def _shape(arg: str) -> str | None:
    m = _BARE_ARG.match(arg)
    return m and m.lastgroup


def is_variable(arg: str) -> bool:
    return _shape(arg) == "var"


def arg_variables(arg: str) -> set[str]:
    """Variables in an argument, looking inside term-shaped arguments."""

    shape = _shape(arg)
    if shape == "var":
        return {arg}
    if shape == "term":
        return set(_INNER_VARIABLE.findall(arg))
    return set()


def substitute_arg(arg: str, binding: dict[str, str]) -> str:
    shape = _shape(arg)
    if shape == "var":
        return binding.get(arg, arg)
    if shape == "term":
        return _INNER_VARIABLE.sub(lambda m: binding.get(m.group(0), m.group(0)), arg)
    return arg


def render_arg(arg: str) -> str:
    if _BARE_ARG.match(arg):
        return arg
    return "'" + arg.replace("'", "\\'") + "'"


@dataclass(frozen=True)
class Atom:
    """A predicate applied to zero or more constant or variable arguments."""

    pred: str
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _IDENTIFIER.match(self.pred):
            raise LogicError(f"bad predicate name: {self.pred!r}")
        object.__setattr__(self, "args", tuple(self.args))

    def is_ground(self) -> bool:
        return not self.variables()

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= arg_variables(a)
        return out

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.pred, tuple(substitute_arg(a, binding) for a in self.args))

    def render(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(render_arg(a) for a in self.args)})"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass(frozen=True)
class HornRule:
    """``head :- body`` with a human-readable label for provenance display.

    ``var_domains`` names fallback constant pools ("devices", "networks",
    "commands") for variables the grounder cannot bind from static body
    atoms alone.
    """

    head: Atom
    body: tuple[Atom, ...]
    label: str = ""
    var_domains: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise LogicError(f"rule {self.label or self.head.render()!r} has an empty body")
        head_vars = self.head.variables()
        if not head_vars:
            return
        body_vars = set().union(*(a.variables() for a in self.body))
        domain_vars = {name for name, _ in self.var_domains}
        loose = head_vars - body_vars - domain_vars
        if loose:
            raise LogicError(
                f"rule {self.label or self.head.render()!r} is not range-restricted: "
                f"head variables {sorted(loose)} missing from the body"
            )

    def variables(self) -> set[str]:
        out = self.head.variables()
        for a in self.body:
            out |= a.variables()
        return out

    def substitute(self, binding: dict[str, str]) -> "HornRule":
        return HornRule(
            self.head.substitute(binding),
            tuple(a.substitute(binding) for a in self.body),
            self.label,
        )

    def render(self) -> str:
        lines = [f"{self.head.render()} :-"]
        for i, atom in enumerate(self.body):
            tail = "," if i < len(self.body) - 1 else "."
            lines.append(f"    {atom.render()}{tail}")
        return "\n".join(lines)


def render_fact(atom: Atom) -> str:
    return atom.render() + "."


_ATOM_TEXT = re.compile(rf"^\s*({_IDENT})\s*(?:\((.*)\))?\s*\.?\s*$", re.S)


def _split_args(text: str) -> list[str]:
    args, depth, start = [], 0, 0
    in_quote = False
    for i, ch in enumerate(text):
        if ch == "'":
            in_quote = not in_quote
        elif in_quote:
            continue
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise LogicError(f"unbalanced parentheses in arguments: {text!r}")
        elif ch == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    if in_quote or depth != 0:
        raise LogicError(f"unbalanced quotes or parentheses in arguments: {text!r}")
    args.append(text[start:])
    return args


def parse_atom(text: str) -> Atom:
    """Parse ``pred(arg, ...)`` text (a goal string or clause fragment)."""

    m = _ATOM_TEXT.match(text)
    if not m:
        raise LogicError(f"cannot parse atom: {text!r}")
    pred, raw_args = m.group(1), m.group(2)
    if raw_args is None or raw_args.strip() == "":
        return Atom(pred)
    args = []
    for piece in _split_args(raw_args):
        piece = piece.strip()
        if not piece:
            raise LogicError(f"empty argument in atom: {text!r}")
        if piece.startswith("'") and piece.endswith("'") and len(piece) >= 2:
            piece = piece[1:-1].replace("\\'", "'")
        args.append(piece)
    return Atom(pred, tuple(args))


@dataclass(frozen=True)
class LogicProgram:
    """A set of ground facts plus rules, ready for saturation."""

    facts: tuple[Atom, ...]
    rules: tuple[HornRule, ...]

    def __post_init__(self) -> None:
        for fact in self.facts:
            if not fact.is_ground():
                raise LogicError(f"fact is not ground: {fact.render()}")
