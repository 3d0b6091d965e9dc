"""Independent reference implementations used to cross-check the engine.

Most of what is here evaluates attack graphs by explicit enumeration over
proof trees or trace subgraphs, deliberately avoiding the fixpoint
algorithms the package uses. Agreement between the two strategies on
randomized inputs is the correctness argument for the fast path.

Enumeration only covers small acyclic graphs. For cyclic graphs the
reference is the plain full sweep (``full_sweep_node_depths`` and
``full_sweep_attack_evidence``): every node evaluated on every pass, in node
order, over full combination sets with no reduction. The package keeps only
the minimal combinations, so its evidence must equal ``minimal_subset`` of
the reference's (with a cap large enough that the reference never
truncates), and of ``proof_masks`` on acyclic graphs.

Exploit rules and their vulProperty terms are checked against a case-by-case
construction (``exploit_rule_parts``, ``pre_term``, ``effect_term``) that
does not read the package's ``PRECONDITIONS`` and ``EFFECTS`` tables.

Library evaluation is checked against verbatim copies of the earlier
grounder and of the argument syntax functions it used
(``ground_static_rules``, ``render_arg``, ``arg_variables``,
``substitute_arg``), which classify each argument with separate regular
expressions. ``fired_library_instances`` grounds the library with that
grounder over the active domain and saturates naively, so the instances that
fire and the atoms derived come out of plain enumeration.

The attack-graph document is described once here, as the dict that
``graph_document`` builds: ``AttackGraph.to_json`` writes its text directly
and must equal ``json.dumps(graph_document(graph), indent=2) + "\n"``.
"""

from __future__ import annotations

import math
import random
import re
from itertools import product

from iotgraph.logic import Atom, HornRule, LogicError
from iotgraph.metrics import Evidence
from iotgraph.model import DEVICE_TYPES, PROTOCOLS, NetworkSpec
from iotgraph.reasoner import DERIVATION, FACT, RULE, AttackGraph, Node

CatSet = frozenset[int]


def graph_document(graph: AttackGraph) -> dict:
    """The ``attack_graph.json`` document as a dict, for ``json.dumps``."""

    return {
        "nodes": [
            {
                "id": n.node_id,
                "kind": n.kind,
                "text": n.text,
                "parents": list(graph.parents.get(n.node_id, ())),
            }
            for n in graph.nodes
        ],
        "goals": [
            {
                "atom": g.render(),
                "node": graph.goal_nodes.get(g),
                "reachable": g in graph.goal_nodes,
            }
            for g in graph.goals
        ],
    }


def evidence_universe(graph: AttackGraph) -> tuple[str, ...]:
    """CVE ids carried by vulnerability facts, deduplicated in node order."""

    seen: list[str] = []
    for node in (n for n in graph.nodes if n.kind == FACT):
        atom = node.atom
        if atom is not None and atom.pred == "vulExists" and len(atom.args) == 2:
            cve = atom.args[1]
            if cve not in seen:
                seen.append(cve)
    return tuple(seen)


def _fact_masks(graph: AttackGraph) -> dict[int, int]:
    universe = evidence_universe(graph)
    masks = {}
    for node in (n for n in graph.nodes if n.kind == FACT):
        atom = node.atom
        mask = 0
        if atom is not None and atom.pred == "vulExists" and len(atom.args) == 2:
            mask = 1 << universe.index(atom.args[1])
        masks[node.node_id] = mask
    return masks


def proof_summaries(graph: AttackGraph, node_id: int) -> set[tuple[int, int]]:
    """All (height, cve-mask) pairs achievable by acyclic proof trees.

    A proof tree of a derivation picks one supporting rule and, recursively,
    proof trees for every body member of that rule. Heights count both the
    rule layer and the derivation layer, matching the engine's depth metric.
    The path set forbids a derivation from appearing above itself, which is
    exactly the acyclic-proof condition.
    """

    masks = _fact_masks(graph)

    def walk(nid: int, path: frozenset[int]) -> set[tuple[int, int]]:
        node = graph.node(nid)
        if node.kind == FACT:
            return {(0, masks[nid])}
        if node.kind == DERIVATION:
            if nid in path:
                return set()
            deeper = path | {nid}
            out: set[tuple[int, int]] = set()
            for rule_id in graph.parents.get(nid, ()):
                for h, m in walk(rule_id, deeper):
                    out.add((h + 1, m))
            return out
        combos: set[tuple[int, int]] = {(0, 0)}
        for pid in graph.parents.get(nid, ()):
            subs = walk(pid, path)
            if not subs:
                return set()
            combos = {(max(h, sh), m | sm) for h, m in combos for sh, sm in subs}
        return {(h + 1, m) for h, m in combos}

    return walk(node_id, frozenset())


def minimal_subset(masks) -> frozenset[int]:
    """The masks no other mask of the collection is a proper subset of."""

    masks = frozenset(masks)
    return frozenset(m for m in masks if not any(o != m and o & m == o for o in masks))


def min_proof_height(graph: AttackGraph, node_id: int) -> int | None:
    summaries = proof_summaries(graph, node_id)
    if not summaries:
        return None
    return min(h for h, _ in summaries)


def proof_masks(graph: AttackGraph, node_id: int) -> frozenset[int]:
    return frozenset(m for _, m in proof_summaries(graph, node_id))


def count_attack_traces(graph: AttackGraph, goal: Atom) -> int:
    """Count distinct attack traces of the goal by explicit enumeration.

    A trace picks exactly one supporting rule for every derivation it uses,
    closed under the rule bodies, and must be acyclic. Two traces are the
    same when they make identical choices over the derivations they contain.
    """

    goal_id = graph.goal_nodes[goal]
    signatures: set[frozenset[tuple[int, int]]] = set()

    def closure(chosen: dict[int, int]) -> tuple[set[int], int | None]:
        stack = [goal_id]
        visited: set[int] = set()
        first_unchosen: int | None = None
        while stack:
            nid = stack.pop()
            node = graph.node(nid)
            if node.kind == FACT:
                continue
            if node.kind == DERIVATION:
                if nid in visited:
                    continue
                visited.add(nid)
                rule_id = chosen.get(nid)
                if rule_id is None:
                    if first_unchosen is None or nid < first_unchosen:
                        first_unchosen = nid
                    continue
                stack.append(rule_id)
            else:
                stack.extend(graph.parents.get(nid, ()))
        return visited, first_unchosen

    def acyclic(sub: dict[int, int]) -> bool:
        edges: dict[int, list[int]] = {}
        for deriv, rule in sub.items():
            edges.setdefault(rule, []).append(deriv)
            for parent in graph.parents.get(rule, ()):
                edges.setdefault(parent, []).append(rule)
        state: dict[int, int] = {}

        def dfs(nid: int) -> bool:
            state[nid] = 1
            for nxt in edges.get(nid, ()):
                mark = state.get(nxt)
                if mark == 1:
                    return False
                if mark is None and not dfs(nxt):
                    return False
            state[nid] = 2
            return True

        return all(state.get(nid) == 2 or dfs(nid) for nid in list(edges))

    def explore(chosen: dict[int, int]) -> None:
        visited, unchosen = closure(chosen)
        if unchosen is not None:
            for rule_id in graph.parents.get(unchosen, ()):
                explore({**chosen, unchosen: rule_id})
            return
        sub = {d: chosen[d] for d in visited}
        if acyclic(sub):
            signatures.add(frozenset(sub.items()))

    explore({})
    return len(signatures)


def random_attack_dag(rng: random.Random) -> AttackGraph:
    """A small random AND/OR DAG in attack-graph shape.

    Facts come first, then alternating rule and derivation layers whose
    parents always point at already-created nodes, so the result is acyclic
    by construction. At most 12 nodes and 4 vulnerability facts.
    """

    n_vuln = rng.randint(1, 4)
    n_plain = rng.randint(0, 2)
    nodes: list[Node] = []
    for k in range(n_vuln):
        atom = Atom("vulExists", (f"dev{k}", f"CVE-2001-{1000 + k}"))
        nodes.append(Node(len(nodes) + 1, FACT, atom.render() + ".", atom=atom))
    for k in range(n_plain):
        atom = Atom("configured", (f"item{k}",))
        nodes.append(Node(len(nodes) + 1, FACT, atom.render() + ".", atom=atom))

    parents: dict[int, tuple[int, ...]] = {}
    fact_ids = [n.node_id for n in nodes]
    deriv_ids: list[int] = []
    while 12 - len(nodes) >= 2:
        budget = 12 - len(nodes)
        n_rules = rng.randint(1, min(3, budget - 1))
        rule_ids = []
        for _ in range(n_rules):
            rid = len(nodes) + 1
            pool = fact_ids + deriv_ids
            body = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            nodes.append(Node(rid, RULE, f"step rule {rid}"))
            parents[rid] = tuple(body)
            rule_ids.append(rid)
        did = len(nodes) + 1
        atom = Atom(f"stage{did}", ("sys",))
        nodes.append(Node(did, DERIVATION, atom.render(), atom=atom))
        parents[did] = tuple(sorted(rule_ids))
        deriv_ids.append(did)

    goal_id = rng.choice(deriv_ids)
    goal = nodes[goal_id - 1].atom
    assert goal is not None
    return AttackGraph(
        nodes=nodes,
        parents=parents,
        goals=(goal,),
        goal_nodes={goal: goal_id},
    )


# ---------------------------------------------------------------------------
# Full-sweep fixpoints: every node evaluated on every pass


def merge_ae_or(a: CatSet, b: CatSet) -> CatSet:
    """Alternative routes: either side's combinations work."""

    return a | b


def merge_ae_and(a: CatSet, b: CatSet) -> CatSet:
    """Joint requirements: one combination from each side, unioned."""

    return frozenset(x | y for x in a for y in b)


def _truncate(tags: CatSet, cap: int) -> CatSet:
    if len(tags) <= cap:
        return tags
    kept = sorted(tags, key=lambda t: (t.bit_count(), t))[:cap]
    return frozenset(kept)


def full_sweep_node_depths(graph: AttackGraph) -> dict[int, float]:
    """Minimum proof-tree height per node; ``inf`` if underivable."""

    vals: dict[int, float] = {}
    for n in graph.nodes:
        vals[n.node_id] = 0.0 if n.kind == FACT else math.inf
    changed = True
    while changed:
        changed = False
        for n in graph.nodes:
            if n.kind == FACT:
                continue
            ps = graph.parents.get(n.node_id, ())
            if not ps:
                continue
            if n.kind == RULE:
                best = max(vals[p] for p in ps)
            else:
                best = min(vals[p] for p in ps)
            cand = best + 1.0
            if cand < vals[n.node_id]:
                vals[n.node_id] = cand
                changed = True
    return vals


def full_sweep_attack_evidence(graph: AttackGraph, cap: int) -> Evidence:
    """Fixpoint of the evidence lattice over the graph.

    Facts carry ``{their CVE bit}`` if they assert a vulnerability and
    ``{0}`` otherwise; rule nodes fold their inputs with the AND merge,
    derivations with the OR merge. Oversized tag sets are truncated to the
    smallest combinations to keep cyclic graphs bounded.
    """

    universe: list[str] = []
    for n in graph.nodes:
        if n.kind == FACT and n.atom is not None and n.atom.pred == "vulExists":
            cve = n.atom.args[1]
            if cve not in universe:
                universe.append(cve)
    bit = {cve: 1 << i for i, cve in enumerate(universe)}

    tags: dict[int, CatSet] = {}
    for n in graph.nodes:
        if n.kind == FACT:
            if n.atom is not None and n.atom.pred == "vulExists":
                tags[n.node_id] = frozenset({bit[n.atom.args[1]]})
            else:
                tags[n.node_id] = frozenset({0})
        else:
            tags[n.node_id] = frozenset()

    changed = True
    while changed:
        changed = False
        for n in graph.nodes:
            if n.kind == FACT:
                continue
            ps = graph.parents.get(n.node_id, ())
            if not ps:
                continue
            if n.kind == RULE:
                acc: CatSet = frozenset({0})
                for p in ps:
                    acc = merge_ae_and(acc, tags[p])
            else:
                acc = frozenset()
                for p in ps:
                    acc = merge_ae_or(acc, tags[p])
            acc = _truncate(acc, cap)
            if acc != tags[n.node_id]:
                tags[n.node_id] = acc
                changed = True
    return Evidence(universe=tuple(universe), tags=tags)


def random_cyclic_attack_graph(rng: random.Random) -> AttackGraph:
    """A random AND/OR graph with cycles, in ``build_attack_graph`` order.

    Nodes come as facts, then rules, then derivations. Every rule heads one
    derivation and takes its body from the facts and from any derivation,
    so rule-to-derivation edges point forward and derivation-to-rule edges
    often point back, closing cycles. A derivation that heads no rule has no
    parents. Up to 7 vulnerability facts, so sets outgrow a small cap.
    """

    n_vuln = rng.randint(3, 7)
    n_plain = rng.randint(0, 1)
    n_rules = rng.randint(4, 14)
    n_derivs = rng.randint(2, 4)
    nodes: list[Node] = []
    for k in range(n_vuln):
        atom = Atom("vulExists", (f"dev{k}", f"CVE-2001-{1000 + rng.randrange(n_vuln + 1)}"))
        nodes.append(Node(len(nodes) + 1, FACT, atom.render() + ".", atom=atom))
    for k in range(n_plain):
        atom = Atom("configured", (f"item{k}",))
        nodes.append(Node(len(nodes) + 1, FACT, atom.render() + ".", atom=atom))
    fact_ids = [n.node_id for n in nodes]
    rule_ids = [len(nodes) + 1 + k for k in range(n_rules)]
    deriv_ids = [rule_ids[-1] + 1 + k for k in range(n_derivs)]
    for rid in rule_ids:
        nodes.append(Node(rid, RULE, f"step rule {rid}"))
    goals = []
    for did in deriv_ids:
        atom = Atom(f"stage{did}", ("sys",))
        nodes.append(Node(did, DERIVATION, atom.render(), atom=atom))
        goals.append(atom)

    parents: dict[int, tuple[int, ...]] = {}
    heads: dict[int, list[int]] = {}
    for rid in rule_ids:
        body = rng.sample(fact_ids, rng.randint(1, 2))
        body += rng.sample(deriv_ids, rng.randint(0, 2))
        rng.shuffle(body)
        parents[rid] = tuple(body)
        heads.setdefault(rng.choice(deriv_ids), []).append(rid)
    for did, rids in heads.items():
        parents[did] = tuple(sorted(rids))

    return AttackGraph(
        nodes=nodes,
        parents=parents,
        goals=tuple(goals),
        goal_nodes={atom: did for atom, did in zip(goals, deriv_ids)},
    )


def strict_ancestors(graph: AttackGraph) -> dict[int, frozenset[int]]:
    """Every node reachable backwards from each node by one or more edges.

    One depth-first search over ``parents`` per node, with no shared state.
    """

    out = {}
    for n in graph.nodes:
        seen: set[int] = set()
        stack = list(graph.parents.get(n.node_id, ()))
        while stack:
            nid = stack.pop()
            if nid not in seen:
                seen.add(nid)
                stack.extend(graph.parents.get(nid, ()))
        out[n.node_id] = frozenset(seen)
    return out


def mutual_reachability_classes(graph: AttackGraph) -> dict[int, frozenset[int]]:
    """For each node, itself and every node it reaches that also reaches it."""

    anc = strict_ancestors(graph)
    return {
        nid: frozenset({nid} | {a for a in ancestors if nid in anc[a]})
        for nid, ancestors in anc.items()
    }


# ---------------------------------------------------------------------------
# Exploit rules built case by case, without the precondition/effect tables.
# ``exploit_rule_parts`` reads ``model.network``: the granted network when the
# effect grants one, else the adjacency network.

_EFFECT_HEAD_PRED = {
    "root": "attackerRoot",
    "deviceControl": "attackerDeviceControl",
    "commandInjection": "attackerCommandInjection",
    "eventAccess": "attackerEventAccess",
    "wifiAccess": "attackerInNetwork",
    "dos": "dos",
}

_EFFECT_TERM_FUNCTOR = {
    "root": "rootPrivilege",
    "deviceControl": "deviceControl",
    "commandInjection": "commandInjection",
    "eventAccess": "eventAccess",
    "dos": "dos",
}


def pre_term(kind: str, device: str, network: NetworkSpec | None) -> str:
    if kind == "network":
        return "network"
    if kind == "local":
        return f"local({device})"
    if kind == "physical":
        return f"physical({device})"
    assert network is not None
    suffix = "AdjacentPhysically" if kind == "adjacentPhysically" else "AdjacentLogically"
    return f"{network.protocol}{suffix}({network.atom})"


def effect_term(effect: str, device: str, grant: NetworkSpec | None) -> str:
    if effect == "wifiAccess":
        assert grant is not None
        return f"{'wifi' if grant.protocol == 'wifi' else 'network'}Access({grant.atom})"
    return f"{_EFFECT_TERM_FUNCTOR[effect]}({device})"


def exploit_rule_parts(model) -> tuple[Atom, list[Atom], str]:
    """Ground head, body, and label for one exploit model's attack rule."""

    body = list(model.facts)
    if model.precondition == "network":
        body.append(Atom("attackerOnInternet"))
    elif model.precondition == "local":
        body.append(Atom("attackerLocal", (model.device,)))
    elif model.precondition == "physical":
        body.append(Atom("attackerPhysicalAccess", (model.device,)))
    else:
        assert model.network is not None
        scope = re.search(r"\(([A-Za-z0-9_]+)\)$", model.pre_term).group(1)
        body.append(Atom("inNetwork", (model.device, scope)))
        pred = (
            "attackerAdjacentPhysically"
            if model.precondition == "adjacentPhysically"
            else "attackerAdjacentLogically"
        )
        body.append(Atom(pred, (scope,)))

    if model.effect == "wifiAccess":
        head = Atom("attackerInNetwork", (model.network,))
    else:
        head_pred = _EFFECT_HEAD_PRED[model.effect]
        head = Atom(head_pred, (model.device,))
    label = f"exploit {model.cve_id} @ {model.device}"
    return head, body, label


# ---------------------------------------------------------------------------
# Grounding as it was before each library rule's joins and fallback pools
# were worked out once per rule: the argument syntax functions verbatim, and
# ``ground_static_rules`` verbatim except that the ``variables``,
# ``substitute`` and ``is_ground`` methods it called are replaced by the
# helpers below, which use the copied argument functions. It joins only the
# body atoms whose predicate is in its copy of the fact predicates; every
# other variable takes the values of a named pool.

STATIC_FACT_PREDS = frozenset(
    {info.predicate for info in DEVICE_TYPES.values()}
    | set(PROTOCOLS)
    | {"inNetwork", "plugInto", "lockedBy", "suppliedBy", "physicallyExposed", "lockFree"}
    | {"vulExists", "vulProperty"}
    | {"attackerOnInternet", "attackerRadioAdjacent", "attackerPhysicalAccess"}
)

_BARE_ARG = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_TERM_ARG = re.compile(r"^[a-z][A-Za-z0-9_]*\([A-Za-z0-9_, ]*\)$")
_VARIABLE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")


def is_variable(arg: str) -> bool:
    return bool(_VARIABLE.match(arg))


_INNER_VARIABLE = re.compile(r"\b[A-Z][A-Za-z0-9_]*\b")


def arg_variables(arg: str) -> set[str]:
    """Variables in an argument, looking inside term-shaped arguments."""

    if is_variable(arg):
        return {arg}
    if _TERM_ARG.match(arg):
        return set(_INNER_VARIABLE.findall(arg))
    return set()


def substitute_arg(arg: str, binding: dict[str, str]) -> str:
    if is_variable(arg):
        return binding.get(arg, arg)
    if _TERM_ARG.match(arg) and _INNER_VARIABLE.search(arg):
        return _INNER_VARIABLE.sub(lambda m: binding.get(m.group(0), m.group(0)), arg)
    return arg


def render_arg(arg: str) -> str:
    if is_variable(arg) or _BARE_ARG.match(arg) or _TERM_ARG.match(arg):
        return arg
    return "'" + arg.replace("'", "\\'") + "'"


def atom_variables(atom: Atom) -> set[str]:
    out: set[str] = set()
    for a in atom.args:
        out |= arg_variables(a)
    return out


def rule_variables(rule: HornRule) -> set[str]:
    out = atom_variables(rule.head)
    for a in rule.body:
        out |= atom_variables(a)
    return out


def _substitute_atom(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.pred, tuple(substitute_arg(a, binding) for a in atom.args))


def _substitute_rule(rule: HornRule, binding: dict[str, str]) -> HornRule:
    return HornRule(
        _substitute_atom(rule.head, binding),
        tuple(_substitute_atom(a, binding) for a in rule.body),
        rule.label,
    )


def _unify(atom: Atom, fact: Atom, binding: dict[str, str]) -> dict[str, str] | None:
    if atom.pred != fact.pred or len(atom.args) != len(fact.args):
        return None
    out = dict(binding)
    for a, f in zip(atom.args, fact.args):
        if a[0].isupper() and a.isidentifier():
            bound = out.get(a)
            if bound is None:
                out[a] = f
            elif bound != f:
                return None
        elif a != f:
            return None
    return out


def ground_static_rules(
    rules: list[HornRule], facts: list[Atom], domains: dict[str, list[str]]
) -> list[HornRule]:
    """Instantiate variable rules against the fact base.

    Body atoms whose predicate lives in the fact base bind variables by
    joining; variables left over take values from the rule's declared
    fallback domains.
    """

    fact_index: dict[str, list[Atom]] = {}
    for f in facts:
        fact_index.setdefault(f.pred, []).append(f)

    out: list[HornRule] = []
    seen: set[tuple] = set()
    for rule in rules:
        bindings = [dict()]
        for atom in rule.body:
            if atom.pred not in STATIC_FACT_PREDS or not atom_variables(atom):
                continue
            next_bindings = []
            for binding in bindings:
                for f in fact_index.get(atom.pred, []):
                    extended = _unify(atom, f, binding)
                    if extended is not None:
                        next_bindings.append(extended)
            bindings = next_bindings
            if not bindings:
                break
        fallback = dict(rule.var_domains)
        for binding in bindings:
            free = sorted(rule_variables(rule) - set(binding))
            pools = []
            for var in free:
                domain = fallback.get(var)
                if domain is None:
                    raise LogicError(
                        f"rule {rule.label!r}: variable {var} has neither a fact "
                        f"binding nor a fallback domain"
                    )
                pools.append(domains.get(domain, []))
            for combo in product(*pools):
                full = dict(binding)
                full.update(zip(free, combo))
                ground = _substitute_rule(rule, full)
                if rule_variables(ground):
                    raise LogicError(f"rule {rule.label!r} did not ground fully: {ground.render()}")
                key = (ground.head, ground.body)
                if key not in seen:
                    seen.add(key)
                    out.append(ground)
    return out


# ---------------------------------------------------------------------------
# The library instances that fire, by grounding everything and saturating

ACTIVE = "active domain"


def _with_active_pools(rule: HornRule) -> HornRule:
    """``rule`` with every variable that a non-fact body atom binds, and no
    fact atom does, ranging over the active domain."""

    def bound(atoms) -> set[str]:
        return {a for atom in atoms for a in atom.args if is_variable(a)}

    fact_bound = bound(a for a in rule.body if a.pred in STATIC_FACT_PREDS)
    pools = dict(rule.var_domains)
    pools.update((var, ACTIVE) for var in bound(rule.body) - fact_bound)
    return HornRule(rule.head, rule.body, rule.label, var_domains=tuple(sorted(pools.items())))


def least_model(facts, rules) -> set[Atom]:
    """Every atom the rules derive from the facts, sweeping until nothing changes."""

    known = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head not in known and all(a in known for a in rule.body):
                known.add(rule.head)
                changed = True
    return known


def fired_library_instances(library, facts, ground, domains):
    """The ``(head, body, label)`` of each library instance that fires, and
    the derived atoms.

    The library is grounded by ``ground_static_rules`` with each variable
    that a derived atom binds ranging over the active domain: every argument
    of a fact, of an atom of the ``ground`` rules, of a domain pool, or of an
    atom derived so far. Grounding and saturation repeat until the derived
    atoms bring no new argument.
    """

    facts = list(facts)
    active = {arg for pool in domains.values() for arg in pool}
    active.update(arg for fact in facts for arg in fact.args)
    active.update(arg for rule in ground for atom in (rule.head, *rule.body) for arg in atom.args)
    pooled = [_with_active_pools(rule) for rule in library]
    while True:
        grounded = ground_static_rules(pooled, facts, {**domains, ACTIVE: sorted(active)})
        known = least_model(facts, [*ground, *grounded])
        grown = active | {arg for atom in known for arg in atom.args}
        if grown == active:
            break
        active = grown
    fired = {
        (rule.head, rule.body, rule.label)
        for rule in grounded
        if all(atom in known for atom in rule.body)
    }
    return fired, known - set(facts)
