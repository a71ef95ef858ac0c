"""Query resolution over ground facts and stratified rules.

Forward chaining computes the least fixpoint stratum by stratum under the
closed-world reading of negation: a negated body atom holds when the positive
atom is absent from the fully saturated lower strata.  A variable that no
positive body atom binds ranges over the active domain, the constants of the
base and of the rules, in saturation and in trace checking alike.

Each rule is compiled once per rule set into a plan over numbered variable
slots, and a query's positive conjuncts compile the same way; both run
through one join over the fact set's predicate/first-argument index.  A
negated query conjunct is a one-step join from the positive conjuncts'
bindings: it rules a candidate out when any fact matches it.  A query is
checked and compiled once per rule set and query, and its plan is kept in
the rule set beside the rule plans, for as long as the rule set lives; an
answer only runs the join.  One walk back from the facts the join matched
yields an answer's trace and its support: the base facts its proof matched,
which a Yes's C2 payload cites.
Saturation runs in whole-rule rounds: a stratum's first round matches every
rule against all facts, and a later round matches against all facts only the
rules with a body predicate that gained facts in the round before.  The rest
could only re-derive known facts, so trace steps and their order are those
of naive evaluation.  Derived atoms hold only the active domain's constants,
so saturation always reaches its fixpoint: there is no round limit.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable

from .fol import Const, Literal, Substitution, Var, apply, unify
from .logicpad import RuleDecl, RuleSet, UnknownPredicate


# ---------------------------------------------------------------------------
# Facts and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    derived: Literal
    rule: str
    premises: tuple[Literal, ...]

    def __str__(self):
        return f"{self.derived} <- {self.rule}({', '.join(map(str, self.premises))})"


@dataclass(frozen=True)
class ProofTrace:
    steps: tuple[TraceStep, ...] = ()

    def __str__(self):
        return "\n".join(str(s) for s in self.steps)


@dataclass(frozen=True)
class FactSet:
    """Ground positive literals for one window, indexed by predicate and
    first argument."""

    facts: frozenset[Literal]
    trace: ProofTrace | None = field(default=None, compare=False)

    def __post_init__(self):
        for f in self.facts:
            if f.negated:
                raise ValueError(f"negative literal in fact set: {f}")
            if not f.is_ground():
                raise ValueError(f"non-ground fact: {f}")

    @staticmethod
    def of(literals) -> "FactSet":
        return FactSet(frozenset(literals))

    @classmethod
    def _trusted(cls, facts: frozenset, trace: ProofTrace, index: dict,
                 unmerged: list) -> "FactSet":
        """A fact set of literals already known to be ground and positive,
        taking over ``index``, which holds all of them but ``unmerged``."""
        fs = object.__new__(cls)
        fs.__dict__.update(facts=facts, trace=trace, _unmerged=(index, unmerged))
        return fs

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.facts

    def __len__(self):
        return len(self.facts)

    def __iter__(self):
        return iter(self.sorted())

    def sorted(self) -> list[Literal]:
        """The facts in ``_fact_key`` order, read off the index."""
        idx = self.index
        return [f for pred in sorted(idx) for f in idx[pred][None]]

    @cached_property
    def index(self) -> dict:
        """pred -> first argument -> facts in sorted order; the key None
        collects all of a predicate's facts.  A saturated set finishes the
        index its saturation kept instead of building one."""
        handed = self.__dict__.pop("_unmerged", None)
        if handed is None:
            return _build_index(self.facts)
        index, unmerged = handed
        _merge_into(index, unmerged)
        return index

    @cached_property
    def by_constant(self) -> dict[str, dict[int, Literal]]:
        """constant name -> {position in ``sorted()``: fact} for the facts
        that name the constant as an argument."""
        out: dict = {}
        for i, f in enumerate(self.sorted()):
            for a in f.args:
                out.setdefault(a.name, {})[i] = f
        return out

    @cached_property
    def trace_map(self) -> dict:
        """derived fact -> (position, step) in the trace."""
        return {s.derived: (i, s) for i, s in enumerate(self.trace.steps)}

    @cached_property
    def constants(self) -> tuple[Const, ...]:
        return tuple(sorted({a for f in self.facts for a in f.args}, key=lambda c: c.name))


_name = attrgetter("name")


def _fact_key(lit: Literal):
    return (lit.pred, tuple(map(_name, lit.args)))


def _build_index(facts) -> dict:
    idx: dict = {}
    for f in sorted(facts, key=_fact_key):
        by_first = idx.setdefault(f.pred, {})
        by_first.setdefault(None, []).append(f)
        if f.args:
            by_first.setdefault(f.args[0], []).append(f)
    return idx


def _merge_into(index: dict, facts: list[Literal]) -> None:
    """Add ``facts`` to ``index`` in index order.  Lists are replaced, never
    extended, so an index copied shallowly from a fact set leaves it intact.
    Each new fact is inserted into a copy of the old list, which is already
    in index order, so ``_fact_key`` runs only on the elements probed."""
    for pred, by_first in _build_index(facts).items():
        merged = dict(index.get(pred, {}))
        for key, new in by_first.items():
            old = merged.get(key)
            if old is None:
                merged[key] = new
                continue
            merged[key] = old = old.copy()
            for f in new:
                insort(old, f, key=_fact_key)
        index[pred] = merged


# ---------------------------------------------------------------------------
# Queries and answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """A conjunction of literals; negated conjuncts are closed-world tests."""

    conjuncts: tuple[Literal, ...]

    def __post_init__(self):
        if not any(not c.negated for c in self.conjuncts):
            raise ValueError("a query needs at least one positive conjunct")

    def variables(self) -> list[Var]:
        out: list[Var] = []
        for c in self.conjuncts:
            for a in c.args:
                if isinstance(a, Var) and a not in out:
                    out.append(a)
        return out

    def is_ground(self) -> bool:
        return not self.variables()


@dataclass(frozen=True)
class Answer:
    truth: bool
    bindings: tuple[Substitution, ...]
    trace: ProofTrace = ProofTrace()
    # The base facts the proof matched, in ``_fact_key`` order.
    support: tuple[Literal, ...] = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# Compiled conjunctions
# ---------------------------------------------------------------------------

class _SlotTable:
    """Numbers the variables and constant terms of one conjunction.  A slot
    starts out holding its term: a constant keeps its value, and a variable
    that nothing binds reads as itself, as ``apply`` leaves it."""

    def __init__(self):
        self.numbers: dict = {}
        self.init: list = []

    def slot(self, term) -> int:
        s = self.numbers.get(term)
        if s is None:
            s = self.numbers[term] = len(self.init)
            self.init.append(term)
        return s


def _fit(args, table: _SlotTable, bound: set, skip: int = -1) -> tuple:
    """How a ground argument tuple matches ``args``, as (arity, tests,
    repeats, binds); see ``_fits``.  ``bound`` holds the variable slots
    bound before and gains those bound here; position ``skip`` is already
    fixed by the index lookup."""
    tests, repeats, binds, first_at = [], [], [], {}
    for pos, t in enumerate(args):
        s = table.slot(t)
        if not isinstance(t, Var) or s in bound:
            if pos != skip:
                tests.append((pos, s))
        elif s in first_at:
            repeats.append((pos, first_at[s]))
        else:
            first_at[s] = pos
            binds.append((pos, s))
    bound.update(first_at)
    return len(args), tuple(tests), tuple(repeats), tuple(binds)


def _fits(args, fit: tuple, slots: list) -> bool:
    """Match ground ``args`` against a compiled ``fit``, binding new
    variable slots in place."""
    arity, tests, repeats, binds = fit
    if len(args) != arity:
        return False
    for pos, s in tests:
        if args[pos] != slots[s]:
            return False
    for pos, first in repeats:
        if args[pos] != args[first]:
            return False
    for pos, s in binds:
        slots[s] = args[pos]
    return True


def _compile_atoms(atoms, table: _SlotTable, bound=frozenset()) -> tuple[tuple, set]:
    """Positive atoms, in order, as (pred, key slot, fit) join steps; the key
    slot's value selects the first-argument bucket (None scans the
    predicate).  ``bound`` holds the variable slots bound before the join.
    Also returns those and the variable slots the join binds."""
    bound = set(bound)
    steps = []
    for atom in atoms:
        key = None
        if atom.args:
            first = atom.args[0]
            if not isinstance(first, Var) or table.slot(first) in bound:
                key = table.slot(first)
        steps.append((atom.pred, key, _fit(atom.args, table, bound, 0 if key is not None else -1)))
    return tuple(steps), bound


def _grounder(args, table: _SlotTable) -> Callable[[list], tuple]:
    """slots -> the argument tuple ``args`` denotes under them."""
    specs = [table.slot(a) for a in args]
    if len(specs) == 1:
        only = specs[0]
        return lambda slots: (slots[only],)
    if not specs:
        return lambda slots: ()
    return itemgetter(*specs)


def _join(steps: tuple, i: int, slots: list, index: dict, premises: tuple = ()):
    """Yield the premises of every match of ``steps[i:]``, in index order,
    binding ``slots`` in place."""
    if i == len(steps):
        yield premises
        return
    pred, key, fit = steps[i]
    by_first = index.get(pred)
    if not by_first:
        return
    for fact in by_first.get(None if key is None else slots[key], ()):
        if _fits(fact.args, fit, slots):
            yield from _join(steps, i + 1, slots, index, premises + (fact,))


# ---------------------------------------------------------------------------
# Forward chaining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RulePlan:
    name: str
    steps: tuple          # positive body atoms as join steps, in body order
    preds: frozenset      # their predicates
    init: tuple           # initial slot values
    free: tuple           # slots no positive atom binds, by first occurrence
    checks: tuple         # negated atoms and equalities decided by the join
    late: tuple           # those that also read a free slot
    head_pred: str
    head: Callable


def _compile_rule(rule: RuleDecl) -> _RulePlan:
    table = _SlotTable()
    positive = [l for l in rule.body if not l.negated and l.pred != "="]
    steps, bound = _compile_atoms(positive, table)
    free: list[int] = []
    for lit in (*rule.body, rule.head):
        for a in lit.args:
            if isinstance(a, Var) and table.slot(a) not in bound and table.slot(a) not in free:
                free.append(table.slot(a))
    checks, late = [], []
    for lit in rule.body:
        if lit.negated or lit.pred == "=":
            # (pred, arguments, whether the atom or equality must hold)
            check = (lit.pred, _grounder(lit.args, table), not lit.negated)
            reads = {table.slot(a) for a in lit.args if isinstance(a, Var)}
            (late if reads - bound else checks).append(check)
    head = _grounder(rule.head.args, table)
    return _RulePlan(rule.name, steps, frozenset(p for p, _, _ in steps),
                     tuple(table.init), tuple(free), tuple(checks), tuple(late),
                     rule.head.pred, head)


def _passes(checks: tuple, slots: list, known: set) -> bool:
    for pred, ground, holds in checks:
        args = ground(slots)
        if pred == "=":
            if (args[0] == args[1]) != holds:
                return False
        elif ((pred, args) in known) != holds:
            return False
    return True


def _plans(rules: RuleSet) -> tuple[tuple[_RulePlan, ...], ...]:
    """The rule set's compiled rules, grouped by stratum; built once per
    rule set."""
    plans = rules.__dict__.get("_inference_plans")
    if plans is None:
        plans = tuple(tuple(_compile_rule(r) for r in group)
                      for group in rules.rules_by_stratum())
        rules.__dict__["_inference_plans"] = plans
    return plans


def _active_domain(base: FactSet, rules: RuleSet) -> tuple[Const, ...]:
    """Constants the semantics ranges over: those in the base plus those
    written into the rules themselves."""
    consts = set(base.constants)
    for r in rules.rules:
        for lit in (r.head, *r.body):
            consts.update(a for a in lit.args if isinstance(a, Const))
    return tuple(sorted(consts, key=lambda c: c.name))


def saturate(base: FactSet, rules: RuleSet) -> FactSet:
    """Least fixpoint of the stratified rules over ``base``, with one trace
    step per derived fact."""
    known = {(f.pred, f.args) for f in base.facts}
    index = dict(base.index)
    pending: list[Literal] = []  # derived facts not yet in the index
    steps: list[TraceStep] = []
    plans = _plans(rules)
    domain = ()
    if any(plan.free for stratum in plans for plan in stratum):
        domain = _active_domain(base, rules)

    for stratum in plans:
        firing = stratum
        while firing:
            _merge_into(index, pending)
            pending = []
            fresh: list[TraceStep] = []
            for plan in firing:
                slots = list(plan.init)
                for premises in _join(plan.steps, 0, slots, index):
                    if plan.checks and not _passes(plan.checks, slots, known):
                        continue
                    for combo in product(domain, repeat=len(plan.free)):
                        for s, c in zip(plan.free, combo):
                            slots[s] = c
                        if plan.late and not _passes(plan.late, slots, known):
                            continue
                        args = plan.head(slots)
                        if (plan.head_pred, args) not in known:
                            known.add((plan.head_pred, args))
                            fresh.append(TraceStep(Literal(plan.head_pred, args),
                                                   plan.name, premises))
            steps.extend(fresh)
            pending.extend(s.derived for s in fresh)
            gained = {s.derived.pred for s in fresh}
            firing = [plan for plan in stratum if plan.preds & gained]

    facts = base.facts.union(s.derived for s in steps)
    return FactSet._trusted(facts, ProofTrace(tuple(steps)), index, pending)


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------

def check_query(q: Query, rules: RuleSet) -> None:
    """Raise UnknownPredicate unless every conjunct uses a declared predicate
    with its declared arity."""
    for c in q.conjuncts:
        if c.pred == "=":
            continue
        d = rules.decl(c.pred)
        if d is None:
            raise UnknownPredicate(f"query uses undeclared predicate {c.pred!r}")
        if d.arity != len(c.args):
            raise UnknownPredicate(
                f"query uses {c.pred} with {len(c.args)} arguments, declared {d.arity}"
            )


@dataclass(frozen=True, slots=True)
class _QueryPlan:
    init: tuple           # initial slot values
    steps: tuple          # positive conjuncts as join steps, in query order
    negative: tuple       # (one-step join, slots it leaves free) per negated atom
    equalities: tuple     # (argument grounder, whether negated) per equality
    names: tuple          # the query variables the join binds, in query order
    out: tuple            # their slots


def _compile_query(q: Query) -> _QueryPlan:
    table = _SlotTable()
    positive = [c for c in q.conjuncts if not c.negated and c.pred != "="]
    steps, bound = _compile_atoms(positive, table)
    out = [(v, table.slot(v)) for v in q.variables() if table.slot(v) in bound]

    # Closed-world tests: a negated conjunct rules a candidate out when some
    # fact matches it, so the variables it leaves free read "for no grounding".
    negative = []
    for c in q.conjuncts:
        if c.negated and c.pred != "=":
            step, after = _compile_atoms([c.atom], table, bound)
            negative.append((step, tuple(after - bound)))
    equalities = [(_grounder(c.args, table), c.negated)
                  for c in q.conjuncts if c.pred == "="]
    return _QueryPlan(tuple(table.init), steps, tuple(negative), tuple(equalities),
                      tuple(v for v, _ in out), tuple(s for _, s in out))


def _query_plan(q: Query, rules: RuleSet) -> _QueryPlan:
    """The query checked against the rule set and compiled; both happen once
    per rule set and query, and the plan is kept in the rule set as its rule
    plans are."""
    plans = rules.__dict__.setdefault("_query_plans", {})
    plan = plans.get(q)
    if plan is None:
        check_query(q, rules)
        plan = plans[q] = _compile_query(q)
    return plan


def _admissible(plan: _QueryPlan, slots: list, index: dict) -> bool:
    for ground, negated in plan.equalities:
        a, b = ground(slots)
        if (a == b) == negated:
            return False
    for step, free in plan.negative:
        found = any(_join(step, 0, slots, index))
        for s in free:
            slots[s] = plan.init[s]
        if found:
            return False
    return True


def _enumerate_bindings(plan: _QueryPlan, sat: FactSet) -> tuple[list[Substitution], list]:
    """Distinct bindings of the bound query variables, ordered by name, and
    the facts that ground the positive conjuncts under them."""
    index = sat.index
    slots = list(plan.init)
    rows: dict = {}
    for premises in _join(plan.steps, 0, slots, index):
        if _admissible(plan, slots, index):
            # Every positive-conjunct variable is bound, so a row fixes its
            # premises.
            rows.setdefault(tuple(slots[s] for s in plan.out), premises)
    order = sorted(rows, key=lambda row: [c.name for c in row])
    return ([dict(zip(plan.names, row)) for row in order],
            [f for row in order for f in rows[row]])


def _answer_trace(roots: list, sat: FactSet) -> tuple[ProofTrace, tuple[Literal, ...]]:
    """Restrict the saturation trace to the steps supporting the facts
    ``roots``, in trace order, and collect the base facts they rest on: the
    facts reached that no step derives, in ``_fact_key`` order."""
    by_fact = sat.trace_map if sat.trace is not None else {}
    reached: dict[int, TraceStep] = {}
    base: set[Literal] = set()
    todo = list(roots)
    while todo:
        fact = todo.pop()
        entry = by_fact.get(fact)
        if entry is None:
            base.add(fact)
        elif entry[0] not in reached:
            reached[entry[0]] = entry[1]
            todo.extend(entry[1].premises)
    return (ProofTrace(tuple(reached[i] for i in sorted(reached))),
            tuple(sorted(base, key=_fact_key)))


def answer_query(sat: FactSet, rules: RuleSet, q: Query) -> Answer:
    """Answer a query against an already saturated fact set."""
    bindings, roots = _enumerate_bindings(_query_plan(q, rules), sat)
    if not roots:
        return Answer(bool(bindings), tuple(bindings))
    return Answer(True, tuple(bindings), *_answer_trace(roots, sat))


def resolve(base: FactSet, rules: RuleSet, q: Query) -> Answer:
    """Enumerate all satisfying ground bindings of the query."""
    return answer_query(saturate(base, rules), rules, q)


# ---------------------------------------------------------------------------
# Trace checking
# ---------------------------------------------------------------------------

def check_trace(t: ProofTrace, base: FactSet, rules: RuleSet) -> bool:
    """True when every step instantiates its named rule from premises that
    were available at that point, and some values of the variables that
    only its negated atoms and equalities read, drawn from the active
    domain, make every negated atom absent and every equality hold."""
    by_name = {r.name: r for r in rules.rules}
    available = set(base.facts)
    all_facts = available | {s.derived for s in t.steps}
    domain = _active_domain(base, rules)
    for step in t.steps:
        rule = by_name.get(step.rule)
        if rule is None:
            return False
        positive = [l for l in rule.body if not l.negated and l.pred != "="]
        if len(positive) != len(step.premises):
            return False
        sub: Substitution | None = {}
        for pat, fact in zip(positive, step.premises):
            sub = unify(pat, fact, sub)
            if sub is None:
                return False
        if any(p not in available for p in step.premises):
            return False
        # Ground remaining variables from the head.
        sub = unify(rule.head, step.derived, sub)
        if sub is None:
            return False
        checks = [apply(sub, l) for l in rule.body if l.negated or l.pred == "="]
        free = list(dict.fromkeys(a for l in checks for a in l.args if isinstance(a, Var)))
        if not any(all(_holds(apply(dict(zip(free, combo)), l), all_facts) for l in checks)
                   for combo in product(domain, repeat=len(free))):
            return False
        available.add(step.derived)
    return True


def _holds(check: Literal, facts: set) -> bool:
    """A ground negated atom or equality under the closed-world reading."""
    if check.pred == "=":
        return (check.args[0] == check.args[1]) != check.negated
    return check.atom not in facts
