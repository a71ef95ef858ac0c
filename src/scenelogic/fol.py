"""First-order logic core: terms, literals, substitution and unification.

The logic is function-free: a term is a constant or a variable.  A function
such as ``ColOf(x) = White`` lives in the knowledge base as the relation
``ColOfRel(x, White)``, so the rules are Datalog with stratified negation.

Everything here is an immutable value.  Substitutions are plain dicts
mapping Var to Term; ``unify`` keeps them in solved (idempotent) form.
"""

from __future__ import annotations

from dataclasses import dataclass


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
# Literals
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


# ---------------------------------------------------------------------------
# Variables of a thing
# ---------------------------------------------------------------------------

def term_vars_many(ts) -> set[Var]:
    return {t for t in ts if isinstance(t, Var)}


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

Substitution = dict  # Var -> Term


def apply_term(s: Substitution, t: Term) -> Term:
    """Simultaneous single-pass substitution: replacements are not re-substituted."""
    return s.get(t, t) if isinstance(t, Var) else t


def apply(s: Substitution, x):
    """Apply a substitution to a Term or a Literal."""
    if isinstance(x, (Const, Var)):
        return apply_term(s, x)
    if isinstance(x, Literal):
        return Literal(x.pred, tuple(apply_term(s, a) for a in x.args), x.negated)
    raise TypeError(f"cannot substitute into {x!r}")


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
