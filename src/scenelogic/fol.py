"""First-order logic core: terms, literals, statements, clauses.

The logic is function-free: a term is a constant or a variable.  A function
such as ``ColOf(x) = White`` lives in the knowledge base as the relation
``ColOfRel(x, White)``, so the rules are Datalog with stratified negation.

Everything here is an immutable value.  Substitutions are plain dicts
mapping Var to Term; ``unify`` keeps them in solved (idempotent) form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


class UnsupportedQuantifier(ValueError):
    """Raised when a statement uses a quantifier the clause converter rejects."""


class NotClosed(ValueError):
    """Raised when a statement's body has free variables not bound by a quantifier."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        # Single lowercase letters print bare; longer names need the marker.
        if len(self.name) == 1 and self.name.islower():
            return self.name
        return f"?{self.name}"


Term = Const | Var


# ---------------------------------------------------------------------------
# Literals, formulas, statements, clauses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A predicate applied to terms, possibly negated.

    The reserved predicate ``=`` is binary equality over terms.
    """

    pred: str
    args: tuple[Term, ...] = ()
    negated: bool = False

    def negate(self) -> "Literal":
        return Literal(self.pred, self.args, not self.negated)

    @property
    def atom(self) -> "Literal":
        """The positive form of this literal."""
        return Literal(self.pred, self.args) if self.negated else self

    def is_ground(self) -> bool:
        return not term_vars_many(self.args)

    def __str__(self):
        sign = "!" if self.negated else ""
        if self.pred == "=" and len(self.args) == 2:
            return f"{sign}({self.args[0]} = {self.args[1]})"
        return f"{sign}{self.pred}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Not:
    part: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Literal | And | Or | Not | Implies

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class Statement:
    """A quantified formula.  ``quantifiers`` is an ordered prefix of
    (kind, variable) pairs with kind in {"forall", "exists"}."""

    quantifiers: tuple[tuple[str, Var], ...]
    body: Formula


@dataclass(frozen=True)
class Clause:
    """Implicitly disjoined, universally quantified set of literals."""

    literals: frozenset[Literal]

    @staticmethod
    def of(lits) -> "Clause | None":
        """Build a clause, dropping duplicates; None if it is a tautology."""
        s = frozenset(lits)
        for lit in s:
            if lit.negate() in s:
                return None
        return Clause(s)

    def __str__(self):
        return " | ".join(sorted(str(l) for l in self.literals))


# ---------------------------------------------------------------------------
# Variables of a thing
# ---------------------------------------------------------------------------

def term_vars_many(ts) -> set[Var]:
    return {t for t in ts if isinstance(t, Var)}


def formula_vars(f: Formula) -> set[Var]:
    if isinstance(f, Literal):
        return term_vars_many(f.args)
    if isinstance(f, (And, Or)):
        return set().union(*(formula_vars(p) for p in f.parts)) if f.parts else set()
    if isinstance(f, Not):
        return formula_vars(f.part)
    if isinstance(f, Implies):
        return formula_vars(f.left) | formula_vars(f.right)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

Substitution = dict  # Var -> Term


def apply_term(s: Substitution, t: Term) -> Term:
    """Simultaneous single-pass substitution: replacements are not re-substituted."""
    return s.get(t, t) if isinstance(t, Var) else t


def apply(s: Substitution, x):
    """Apply a substitution to a Term, Literal, Clause, or Formula."""
    if isinstance(x, (Const, Var)):
        return apply_term(s, x)
    if isinstance(x, Literal):
        return Literal(x.pred, tuple(apply_term(s, a) for a in x.args), x.negated)
    if isinstance(x, Clause):
        return Clause(frozenset(apply(s, l) for l in x.literals))
    if isinstance(x, And):
        return And(tuple(apply(s, p) for p in x.parts))
    if isinstance(x, Or):
        return Or(tuple(apply(s, p) for p in x.parts))
    if isinstance(x, Not):
        return Not(apply(s, x.part))
    if isinstance(x, Implies):
        return Implies(apply(s, x.left), apply(s, x.right))
    raise TypeError(f"cannot substitute into {x!r}")


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """s2 after s1: apply(compose(s1, s2), t) == apply(s2, apply(s1, t))."""
    out = {v: apply_term(s2, t) for v, t in s1.items()}
    for v, t in s2.items():
        if v not in out:
            out[v] = t
    return {v: t for v, t in out.items() if t != v}


def unify_terms(a: Term, b: Term, s: Substitution | None) -> Substitution | None:
    """Most general unifier of two terms, extending s.  None when absent."""
    if s is None:
        return None
    a = apply_term(s, a)
    b = apply_term(s, b)
    if a == b:
        return s
    if not isinstance(a, Var):
        a, b = b, a
    if not isinstance(a, Var):
        return None
    # Bind a to b, and substitute b for a in the bindings so far.
    out = {u: b if t == a else t for u, t in s.items()}
    out[a] = b
    return out


def unify(a: Literal, b: Literal, s: Substitution | None = None) -> Substitution | None:
    """Most general unifier of two literals; fails on predicate or sign mismatch."""
    if s is None:
        s = {}
    if a.pred != b.pred or a.negated != b.negated or len(a.args) != len(b.args):
        return None
    for x, y in zip(a.args, b.args):
        s = unify_terms(x, y, s)
        if s is None:
            return None
    return s


# ---------------------------------------------------------------------------
# CNF conversion
# ---------------------------------------------------------------------------

def _elim_implies(f: Formula) -> Formula:
    if isinstance(f, Literal):
        return f
    if isinstance(f, Implies):
        return Or((Not(_elim_implies(f.left)), _elim_implies(f.right)))
    if isinstance(f, And):
        return And(tuple(_elim_implies(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_elim_implies(p) for p in f.parts))
    if isinstance(f, Not):
        return Not(_elim_implies(f.part))
    raise TypeError(f"not a formula: {f!r}")


def _nnf(f: Formula) -> Formula:
    """Push negation down to literals.  Input must be implication-free."""
    if isinstance(f, Literal):
        return f
    if isinstance(f, And):
        return And(tuple(_nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_nnf(p) for p in f.parts))
    if isinstance(f, Not):
        g = f.part
        if isinstance(g, Literal):
            return g.negate()
        if isinstance(g, Not):
            return _nnf(g.part)
        if isinstance(g, And):
            return Or(tuple(_nnf(Not(p)) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(_nnf(Not(p)) for p in g.parts))
    raise TypeError(f"not in implication-free form: {f!r}")


def _distribute(f: Formula) -> list[frozenset[Literal]]:
    """NNF formula -> list of literal sets (disjunctions)."""
    if isinstance(f, Literal):
        return [frozenset([f])]
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(_distribute(p))
        return out
    if isinstance(f, Or):
        parts = [_distribute(p) for p in f.parts]
        return [frozenset().union(*combo) for combo in product(*parts)]
    raise TypeError(f"not in NNF: {f!r}")


def to_cnf(st: Statement) -> list[Clause]:
    """Convert a closed, universally quantified statement to clauses.

    Tautologies and duplicate clauses are dropped; existential quantifiers
    are rejected.
    """
    qvars = {v for _, v in st.quantifiers}
    free = formula_vars(st.body) - qvars
    if free:
        names = ", ".join(sorted(str(v) for v in free))
        raise NotClosed(f"unquantified variables: {names}")
    for kind, v in st.quantifiers:
        if kind == EXISTS:
            raise UnsupportedQuantifier(f"existential quantifier on {v} not supported in rules")

    nnf = _nnf(_elim_implies(st.body))
    clauses: list[Clause] = []
    seen: set[frozenset[Literal]] = set()
    for lits in _distribute(nnf):
        c = Clause.of(lits)
        if c is not None and c.literals not in seen:
            seen.add(c.literals)
            clauses.append(c)
    return clauses
