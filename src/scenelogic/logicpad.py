"""LogicPad rule files: the YAML document declaring predicates, functions,
derived rules, question vocabulary, and sentence templates.

The textual FOL syntax used inside rule files (and by the query parsers) is:

    forall x, y: (DistanceDecreases(x, y) & !Appears(x)) -> GettingCloser(x, y)
    ColOf(x) = White          function equality, stored as ColOfRel(x, White)
    !Moves(x)                 negation

Variables are single lowercase letters or ``?name``; everything else in
argument position is a constant.  Function terms such as ``P(f(x))`` are
rejected: a declared function appears only in its equality form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

import yaml

from .fol import (
    FORALL,
    EXISTS,
    And,
    Const,
    Formula,
    Implies,
    Literal,
    Not,
    Or,
    Statement,
    Term,
    Var,
)

FUNC_REL_SUFFIX = "Rel"


class ParseError(ValueError):
    """A syntax or shape error.  ``entry`` names the rule-file entry it is
    in; ``position`` is None when the error is not at one place in a text."""

    def __init__(self, position: int | None, message: str, entry: str = ""):
        where = [entry] if entry else []
        if position is not None:
            where.append(f"at position {position}")
        super().__init__(": ".join([*where, message]))
        self.position = position
        self.message = message


class UnknownPredicate(ValueError):
    pass


class ArityMismatch(ValueError):
    pass


class NotStratifiable(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer / parser for the shared FOL expression syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<qvar>\?[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),:&|!=]))"
)


@dataclass
class _Token:
    kind: str  # arrow | name | qvar | punct | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(bad, f"unexpected character {stripped[0]!r}")
        if m.lastgroup == "punct":
            tokens.append(_Token("punct", m.group("punct"), m.start("punct")))
        elif m.lastgroup == "arrow":
            tokens.append(_Token("arrow", "->", m.start("arrow")))
        elif m.lastgroup == "qvar":
            tokens.append(_Token("qvar", m.group("qvar"), m.start("qvar")))
        else:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _is_var_name(name: str) -> bool:
    return len(name) == 1 and name.islower()


class _Parser:
    """Recursive descent over the token list.

    Precedence, loosest first: ``->`` (right associative), ``|``, ``&``,
    unary ``!``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(t.pos, f"expected {text!r}, found {t.text or 'end of input'!r}")
        return t

    def parse_statement(self) -> Statement:
        quantifiers: list[tuple[str, Var]] = []
        while self.peek().kind == "name" and self.peek().text in (FORALL, EXISTS):
            kind = self.next().text
            while True:
                t = self.next()
                if t.kind == "qvar":
                    quantifiers.append((kind, Var(t.text[1:])))
                elif t.kind == "name" and _is_var_name(t.text):
                    quantifiers.append((kind, Var(t.text)))
                else:
                    raise ParseError(t.pos, f"expected a variable, found {t.text!r}")
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect(":")
        body = self.parse_expr()
        end = self.next()
        if end.kind != "end":
            raise ParseError(end.pos, f"unexpected trailing input {end.text!r}")
        return Statement(tuple(quantifiers), body)

    def parse_expr(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "arrow":
            self.next()
            right = self.parse_expr()
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().text == "&":
            self.next()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.text == "!":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Literal):
                return inner.negate()
            return Not(inner)
        if t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            # Parenthesized atom may still be the left side of an equality.
            if isinstance(inner, Literal) and self.peek().text == "=":
                raise ParseError(self.peek().pos, "equality must be written inside the parentheses")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        if self.peek().kind in ("name", "qvar") and self._equality_follows(self.i + 1):
            left = self.parse_term()
            negated = self.next().text == "!"
            if negated:
                self.expect("=")
            return Literal("=", (left, self.parse_term()), negated)
        t = self.next()
        if t.kind != "name":
            raise ParseError(t.pos, f"expected a predicate, found {t.text or 'end of input'!r}")
        name = t.text
        self.expect("(")
        args = [self.parse_term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_term())
        self.expect(")")
        if self.peek().text == "=":
            self.next()
            value = self.parse_term()
            # Function equality normalizes to the function's relation form.
            return Literal(name + FUNC_REL_SUFFIX, tuple(args) + (value,))
        return Literal(name, tuple(args))

    def _equality_follows(self, i: int) -> bool:
        """Whether the tokens from ``i`` on start with ``=`` or ``!=``."""
        t = self.tokens[i]
        return t.text == "=" or (t.text == "!" and self.tokens[i + 1].text == "=")

    def parse_term(self) -> Term:
        t = self.next()
        if t.kind == "qvar":
            return Var(t.text[1:])
        if t.kind != "name":
            raise ParseError(t.pos, f"expected a term, found {t.text or 'end of input'!r}")
        if self.peek().text == "(":
            raise ParseError(t.pos, f"arguments are constants or variables; write the "
                                    f"function {t.text} as {t.text}(...) = value and "
                                    f"declare it under functions:")
        if _is_var_name(t.text):
            return Var(t.text)
        return Const(t.text)


def parse_fol_expr(text: str) -> Statement:
    """Parse a statement in the shared FOL syntax."""
    return _Parser(text).parse_statement()


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_fol_expr)
# ---------------------------------------------------------------------------

def format_literal(lit: Literal, functions: tuple[str, ...] = ()) -> str:
    """Render a literal; function relations print in their equality form."""
    sign = "!" if lit.negated else ""
    base = lit.pred.removesuffix(FUNC_REL_SUFFIX)
    if lit.pred.endswith(FUNC_REL_SUFFIX) and base in functions and len(lit.args) >= 2:
        head = ", ".join(str(a) for a in lit.args[:-1])
        return f"{sign}{base}({head}) = {lit.args[-1]}"
    return f"{sign}{lit.pred}({', '.join(str(a) for a in lit.args)})"


def format_formula(f: Formula, functions: tuple[str, ...] = ()) -> str:
    if isinstance(f, Literal):
        return format_literal(f, functions)
    if isinstance(f, And):
        return " & ".join(_wrap(p, functions) for p in f.parts)
    if isinstance(f, Or):
        return " | ".join(_wrap(p, functions) for p in f.parts)
    if isinstance(f, Not):
        return f"!({format_formula(f.part, functions)})"
    if isinstance(f, Implies):
        return f"({format_formula(f.left, functions)}) -> {_wrap(f.right, functions)}"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula, functions: tuple[str, ...]) -> str:
    s = format_formula(f, functions)
    if isinstance(f, Literal) and not (f.pred.endswith(FUNC_REL_SUFFIX)
                                       and f.pred.removesuffix(FUNC_REL_SUFFIX) in functions):
        return s
    if isinstance(f, Literal):
        return f"({s})" if not f.negated else f"!({s[1:]})"
    return f"({s})"


def format_statement(st: Statement, functions: tuple[str, ...] = ()) -> str:
    body = format_formula(st.body, functions)
    if not st.quantifiers:
        return body
    groups: list[str] = []
    current_kind = None
    for kind, v in st.quantifiers:
        if kind != current_kind:
            groups.append(f"{kind} {v}")
            current_kind = kind
        else:
            groups[-1] += f", {v}"
    return f"{' '.join(groups)}: {body}"


# ---------------------------------------------------------------------------
# Rule file model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredicateDecl:
    name: str
    arity: int
    source: str  # "atomic" | "derived"
    doc: str = ""


@dataclass(frozen=True)
class RuleDecl:
    """A universally quantified implication whose head is one positive literal
    and whose body is a conjunction of possibly negated literals."""

    name: str
    statement: Statement
    head: Literal
    body: tuple[Literal, ...]
    provenance: str = ""

    def __str__(self):
        return f"{self.name}: {format_statement(self.statement)}"


@dataclass(frozen=True)
class RuleSet:
    declarations: tuple[PredicateDecl, ...]
    functions: tuple[str, ...]
    rules: tuple[RuleDecl, ...]
    strata: dict = field(compare=False)  # predicate name -> stratum index
    vocabulary: dict = field(default_factory=dict, compare=False)
    templates: dict = field(default_factory=dict, compare=False)

    def arity(self, pred: str) -> int | None:
        d = self.decl(pred)
        return d.arity if d else None

    def decl(self, pred: str) -> PredicateDecl | None:
        return self._by_name.get(pred)

    @property
    def _by_name(self) -> dict:
        cache = self.__dict__.get("_by_name_cache")
        if cache is None:
            cache = {d.name: d for d in self.declarations}
            self.__dict__["_by_name_cache"] = cache
        return cache

    def atomic_predicates(self) -> list[PredicateDecl]:
        return [d for d in self.declarations if d.source == "atomic"]

    def derived_predicates(self) -> list[PredicateDecl]:
        return [d for d in self.declarations if d.source == "derived"]

    def rules_by_stratum(self) -> list[list[RuleDecl]]:
        """Rules grouped by the stratum of their head predicate, ascending."""
        if not self.rules:
            return []
        top = max(self.strata.get(r.head.pred, 0) for r in self.rules)
        groups: list[list[RuleDecl]] = [[] for _ in range(top + 1)]
        for r in self.rules:
            groups[self.strata.get(r.head.pred, 0)].append(r)
        return [g for g in groups if g]

    def max_stratum(self) -> int:
        return max(self.strata.values(), default=0)


def flatten_conjunction(f: Formula, what: str) -> list[Literal]:
    """The literals of a conjunction of possibly negated literals; anything
    else is a ParseError saying ``what`` must be such a conjunction."""
    if isinstance(f, Literal):
        return [f]
    if isinstance(f, And):
        return [lit for p in f.parts for lit in flatten_conjunction(p, what)]
    if isinstance(f, Not) and isinstance(f.part, Literal):
        return [f.part.negate()]
    raise ParseError(0, f"{what} must be a conjunction of literals")


def _rule_shape(name: str, st: Statement, provenance: str) -> RuleDecl:
    for kind, _ in st.quantifiers:
        if kind != FORALL:
            raise ParseError(0, f"rule {name!r}: only universal quantifiers are allowed")
    body_f = st.body
    if not isinstance(body_f, Implies):
        raise ParseError(0, f"rule {name!r}: expected an implication")
    head = body_f.right
    if not isinstance(head, Literal) or head.negated:
        raise ParseError(0, f"rule {name!r}: head must be a single positive literal")

    body = tuple(flatten_conjunction(body_f.left, f"rule {name!r}: body"))
    return RuleDecl(name, st, head, body, provenance)


def _check_usage(rules: tuple[RuleDecl, ...], decls: dict) -> None:
    for r in rules:
        for lit in (r.head, *r.body):
            if lit.pred == "=":
                if len(lit.args) != 2:
                    raise ArityMismatch(f"rule {r.name!r}: = takes two arguments")
                continue
            d = decls.get(lit.pred)
            if d is None:
                raise UnknownPredicate(f"rule {r.name!r} uses undeclared predicate {lit.pred!r}")
            if d.arity != len(lit.args):
                raise ArityMismatch(
                    f"rule {r.name!r}: {lit.pred} declared with arity {d.arity}, used with {len(lit.args)}"
                )


def stratify(decls: tuple[PredicateDecl, ...], rules: tuple[RuleDecl, ...]) -> dict:
    """Assign each predicate a stratum so that negative dependencies strictly
    descend.  Rule-defined predicates sit above the atomic base (stratum >= 1).
    Raises NotStratifiable on a negation cycle."""
    strata = {d.name: 0 for d in decls}
    for r in rules:
        strata[r.head.pred] = 1
    n = len(strata) + 1
    for _ in range(n):
        changed = False
        for r in rules:
            h = r.head.pred
            for lit in r.body:
                if lit.pred == "=":
                    continue
                need = strata[lit.pred] + (1 if lit.negated else 0)
                if strata[h] < need:
                    strata[h] = need
                    changed = True
        if not changed:
            return strata
    raise NotStratifiable("negation cycle in rule dependencies")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _entries(doc: dict, section: str) -> list[tuple[str, dict]]:
    """The section's entries, each with its name for messages; a section
    that is not a list, or an entry that is not a mapping, raises."""
    rows = doc.get(section) or []
    if not isinstance(rows, list):
        raise ParseError(None, f"must be a list of mappings, not {rows!r}", section)
    for idx, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ParseError(None, f"must be a mapping, not {row!r}", f"{section}[{idx}]")
    return [(f"{section}[{idx}]", row) for idx, row in enumerate(rows)]


def _field(row: dict, key: str, entry: str):
    if key not in row:
        raise ParseError(None, f"missing key {key!r}", entry)
    return row[key]


def parse_rule_file(text: str, source: str = "<string>") -> RuleSet:
    """Parse a LogicPad YAML document into a RuleSet."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        line = mark.line + 1 if mark else 0
        raise ParseError(line, f"invalid YAML: {e}") from e
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(0, "rule file must be a YAML mapping")

    decls: list[PredicateDecl] = []
    seen: set[str] = set()
    for where, row in _entries(doc, "predicates"):
        name = _field(row, "name", where)
        entry = f"predicate {name!r}"
        if name in seen:
            raise ParseError(0, f"duplicate predicate declaration {name!r}")
        seen.add(name)
        kind = row.get("source", "atomic")
        if kind not in ("atomic", "derived"):
            raise ParseError(None, f"source must be atomic or derived, not {kind!r}", entry)
        arity = _field(row, "arity", entry)
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise ParseError(None, f"arity must be an integer, not {arity!r}", entry)
        decls.append(PredicateDecl(name, arity, kind, row.get("doc", "")))

    functions = tuple(_field(row, "name", where) for where, row in _entries(doc, "functions"))
    for fname in functions:
        rel = fname + FUNC_REL_SUFFIX
        if rel not in seen:
            seen.add(rel)
            decls.append(PredicateDecl(rel, 2, "atomic", f"relation form of function {fname}"))

    rules: list[RuleDecl] = []
    for idx, (_, row) in enumerate(_entries(doc, "rules")):
        name = row.get("name", f"rule{idx}")
        entry = f"rule {name!r}"
        text = _field(row, "fol", entry)
        try:
            st = parse_fol_expr(text)
        except ParseError as e:
            raise ParseError(e.position, e.message, entry) from e
        rules.append(_rule_shape(name, st, provenance=f"{source}:rules[{idx}]"))

    decl_map = {d.name: d for d in decls}
    _check_usage(tuple(rules), decl_map)
    strata = stratify(tuple(decls), tuple(rules))

    return RuleSet(
        declarations=tuple(decls),
        functions=functions,
        rules=tuple(rules),
        strata=strata,
        # Question words match case-insensitively; on duplicate keys the
        # later one wins.
        vocabulary={section: {str(k).lower(): v for k, v in (table or {}).items()}
                    for section, table in (doc.get("vocabulary") or {}).items()},
        templates=doc.get("templates") or {},
    )


def load_rule_file(path) -> RuleSet:
    with open(path, "r", encoding="utf-8") as f:
        return parse_rule_file(f.read(), source=str(path))


def default_ruleset() -> RuleSet:
    """The built-in rule file covering the full predicate catalog."""
    text = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    return parse_rule_file(text, source="builtin:default.yaml")
