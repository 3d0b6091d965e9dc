"""Horn-clause representation and the clause text syntax.

Atoms are ``predicate(arg, ...)`` with string arguments. Predicates and
constants are identifiers (``[a-z][A-Za-z0-9_]*``), variables the same with
an uppercase first letter; a term-shaped argument (``dos(D)``) may hold
variables and renders bare like them, other arguments (CVE ids) render
single-quoted. Static rule libraries carry variables, everything the reasoner
consumes is ground; range restriction is checked where a head has variables.

A library rule is checked once, when it is built. Its ground instances are
built from argument templates (``args_template``) with ``Atom.instance``
and ``HornRule.instance``, which do not check them again. An atom computes its
hash when it is built and its text on the first ``render()``, and keeps both.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter


class LogicError(ValueError):
    """Malformed atom, rule, or program."""


_IDENT = r"[a-z][A-Za-z0-9_]*"
_VAR = r"[A-Z][A-Za-z0-9_]*"
_IDENTIFIER = re.compile(rf"^{_IDENT}$")
_INNER_VARIABLE = re.compile(rf"\b{_VAR}\b")
# What renders bare: a variable, a term or an identifier. ``_shape`` gives
# "var" or "term" for the first two and None for anything else.
_BARE_ARG = re.compile(rf"^(?:(?P<var>{_VAR})|(?P<term>{_IDENT}\([A-Za-z0-9_, ]*\))|{_IDENT})$")
# Most arguments are ASCII identifiers (``a.isidentifier() and a.isascii()``),
# for which the first character alone settles what the regex would answer:
# uppercase is a variable, lowercase an identifier, "_" matches nothing. The
# regex decides every other argument.


def _shape(arg: str) -> str | None:
    if arg.isidentifier() and arg.isascii():
        return "var" if arg[0].isupper() else None
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


def picker(keys: list[int]) -> Callable[[tuple], tuple]:
    """A function from a tuple to its items at ``keys``, as a tuple."""

    if len(keys) > 1:
        return itemgetter(*keys)
    # One key would give the bare item and none would raise; a slice gives a
    # tuple.
    return itemgetter(slice(keys[0], keys[0] + 1) if keys else slice(0))


def args_template(
    args: tuple[str, ...], slots: dict[str, int]
) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """A function from slot values to ``args`` with every variable filled in.

    ``slots`` numbers the variables of ``args`` from 0 in insertion order,
    and a variable takes the value at its number. Where every argument is a
    variable (or there is none) the values are picked out by number, with no
    substitution.
    """

    if all(map(is_variable, args)):
        return picker([slots[a] for a in args])
    names = list(slots)

    def fill(values: tuple[str, ...]) -> tuple[str, ...]:
        binding = dict(zip(names, values))
        return tuple([substitute_arg(a, binding) for a in args])

    return fill


# The frozen classes below set their fields through these.
_new, _set = object.__new__, object.__setattr__


def _slot_setters(cls: type, *names: str) -> list[Callable[[object, object], None]]:
    """The setters of ``cls``'s slots ``names``. Called directly, a slot's
    setter skips the class lookup that ``object.__setattr__`` makes on each
    call, which halves the cost of building an atom or a rule.
    """

    return [cls.__dict__[name].__set__ for name in names]


def render_arg(arg: str) -> str:
    if arg.isidentifier() and arg.isascii():
        if arg[0] != "_":
            return arg
    elif _BARE_ARG.match(arg):
        return arg
    return "'" + arg.replace("'", "\\'") + "'"


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to zero or more constant or variable arguments."""

    pred: str
    args: tuple[str, ...] = ()
    # Worked out once per atom; equality and repr leave them out.
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _IDENTIFIER.match(self.pred):
            raise LogicError(f"bad predicate name: {self.pred!r}")
        args = tuple(self.args)
        _set(self, "args", args)
        _set(self, "_hash", hash((self.pred, args)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def instance(cls, pred: str, args: tuple[str, ...]) -> "Atom":
        """An atom over a checked predicate name, built without checking it again."""

        atom = _new(cls)
        _set_pred(atom, pred)
        _set_args(atom, args)
        _set_hash(atom, hash((pred, args)))
        _set_text(atom, None)
        return atom

    def is_ground(self) -> bool:
        # Only a variable (uppercase first letter) or a term (with "(") can
        # hold a variable; any other argument is ground, so skip the regex.
        for a in self.args:
            if (a[:1].isupper() or "(" in a) and arg_variables(a):
                return False
        return True

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= arg_variables(a)
        return out

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.pred, tuple(substitute_arg(a, binding) for a in self.args))

    def render(self) -> str:
        if self._text is None:
            text = self.pred
            if self.args:
                args = [
                    a if a.isidentifier() and a.isascii() and a[0] != "_" else render_arg(a)
                    for a in self.args
                ]
                text = f"{text}({', '.join(args)})"
            _set_text(self, text)
        return self._text

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


_set_pred, _set_args, _set_hash, _set_text = _slot_setters(Atom, "pred", "args", "_hash", "_text")


@dataclass(frozen=True, slots=True)
class HornRule:
    """``head :- body`` with a human-readable label for provenance display.

    ``var_domains`` names a constant pool for each variable that no body
    atom binds; the evaluator gives such a variable every value of its pool.
    In the static library only the voice rules' ``Cmd`` has one, over
    "commands", the phrases the bound apps listen for.
    """

    head: Atom
    body: tuple[Atom, ...]
    label: str = ""
    var_domains: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        _set(self, "body", tuple(self.body))
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

    @classmethod
    def instance(cls, head: Atom, body: tuple[Atom, ...], label: str) -> "HornRule":
        """A ground instance of a checked rule, built without checking it again.

        Equal to what ``substitute`` returns for the same atoms.
        """

        rule = _new(cls)
        _set_head(rule, head)
        _set_body(rule, body)
        _set_label(rule, label)
        _set_domains(rule, ())
        return rule

    def render(self) -> str:
        body = ",\n    ".join([atom.render() for atom in self.body])
        return f"{self.head.render()} :-\n    {body}."


_set_head, _set_body, _set_label, _set_domains = _slot_setters(
    HornRule, "head", "body", "label", "var_domains"
)


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
    """Ground facts plus rules; ``reasoner.saturate`` checks that the facts are ground."""

    facts: tuple[Atom, ...]
    rules: tuple[HornRule, ...]
