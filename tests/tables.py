"""The package's stages over one atom table, for tests that call a stage alone.

``pipeline.analyze`` opens one ``reasoner.SaturationResult`` before
classification: ``rules.config_facts`` enters the configuration and
attacker facts, ``pipeline.build_models`` the exploit atoms, and
``rules.compile_system`` evaluates the library over that table. ``classify``
and ``compile_config`` do the same for a test; ``models_for`` classifies one CVE
into a table of its own.

``ground`` runs ``reasoner.ground_static_rules`` over ``Atom`` facts and
``HornRule`` ground rules, interned into a new table as ``saturate``
interns a program, and ``evaluation_atoms`` reads a recorded call of it
back as those ``Atom``s and ``HornRule``s.
"""

from __future__ import annotations

from iotgraph import exploits, pipeline, reasoner, rules
from iotgraph.reasoner import GIVEN, SaturationResult


def classify(config, findings=(), overrides=None):
    """The table, fact block sizes and exploit models of ``analyze``'s classify stage."""

    table, blocks = rules.config_facts(config)
    return table, blocks, pipeline.build_models(config, list(findings), table, overrides)


def fact_blocks(config):
    """``config``'s facts as ``rules.config_facts`` enters them, as ``Atom``s:
    the configuration blocks, and the attacker facts."""

    table, sizes = rules.config_facts(config)
    blocks, start = [], 0
    for size in sizes:
        blocks.append([table.atom(i) for i in range(start, start + size)])
        start += size
    return blocks[:-1], blocks[-1]


def build_models(config, findings, overrides=None):
    """``pipeline.build_models`` over a table that holds ``config``'s facts."""

    return classify(config, findings, overrides)[2]


def compile_config(config, findings=(), bound=(), extra_goals=(), overrides=None):
    """``config`` compiled with the models of ``findings`` and the ``bound`` apps."""

    table, blocks, models = classify(config, findings, overrides)
    return rules.compile_system(config, table, blocks, models, list(bound), extra_goals)


def models_for(device, record, protocols, kinds):
    """``exploits.models_for`` over a table of its own."""

    return exploits.models_for(device, record, protocols, kinds, SaturationResult())


def ground(library, facts, domains, ground_rules=()):
    """``reasoner.ground_static_rules`` over ``Atom`` facts and ``HornRule`` ground rules."""

    table = SaturationResult()
    ids = list(dict.fromkeys([table.intern(a.pred, a.args, a, GIVEN) for a in facts]))
    rows = [table.row(rule) for rule in ground_rules]
    return reasoner.ground_static_rules(library, table, ids, domains, rows)


def evaluation_atoms(args):
    """The library, facts, domains and ground rules of a recorded
    ``ground_static_rules(library, table, fact ids, domains, rows)`` call."""

    library, table, ids, domains, rows = args
    return library, [table.atom(i) for i in ids], domains, [table.rule(r) for r in rows]
