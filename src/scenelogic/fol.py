"""First-order logic core: terms, literals, substitution and unification.

The logic is function-free: a term is a constant or a variable.  A function
such as ``ColOf(x) = White`` lives in the knowledge base as the relation
``ColOfRel(x, White)``, so the rules are Datalog with stratified negation.

Everything here is an immutable value.  Terms are interned, so equal terms
are one object, and a literal is a tuple: both hash and compare in C.
Substitutions are plain dicts mapping Var to Term; ``unify`` keeps them in
solved (idempotent) form.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class _Name:
    """A term named by a string, interned: there is one live object per
    class and name, so equality and hashing are ``object``'s own, by
    identity.  Each class keeps its live objects in a weak table, so a name
    that nothing refers to any more leaves it."""

    __slots__ = ("name", "__weakref__")

    def __init_subclass__(cls):
        cls._live = weakref.WeakValueDictionary()

    def __new__(cls, name: str):
        term = cls._live.get(name)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "name", name)
            term = cls._live.setdefault(name, term)
        return term

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return type(self), (self.name,)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class Const(_Name):
    __slots__ = ()

    def __str__(self):
        return self.name


def is_var_name(name: str) -> bool:
    """Whether text reads a bare name as a variable; others need ``?``."""
    return len(name) == 1 and name.islower()


class Var(_Name):
    __slots__ = ()

    def __str__(self):
        return self.name if is_var_name(self.name) else f"?{self.name}"


Term = Const | Var


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

class Literal(NamedTuple):
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
        return Var not in map(type, self.args)

    def __str__(self):
        sign = "!" if self.negated else ""
        if self.pred == "=" and len(self.args) == 2:
            return f"{sign}({self.args[0]} = {self.args[1]})"
        return f"{sign}{self.pred}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

Substitution = dict  # Var -> Term


def apply_term(s: Substitution, t: Term) -> Term:
    """Simultaneous single-pass substitution: replacements are not
    re-substituted.  A constant is never a key, as no constant equals a
    variable."""
    return s.get(t, t)


def apply(s: Substitution, x):
    """Apply a substitution to a Term or a Literal."""
    if isinstance(x, Literal):
        return Literal(x.pred, tuple(map(s.get, x.args, x.args)), x.negated)
    if isinstance(x, (Const, Var)):
        return s.get(x, x)
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
