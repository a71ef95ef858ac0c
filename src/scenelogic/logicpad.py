"""LogicPad rule files: the YAML document declaring predicates, functions,
derived rules, question vocabulary, and sentence templates.

The text syntax used inside rule files (and by the query parsers) is
Datalog with stratified negation:

    forall x, y: (DistanceDecreases(x, y) & !Appears(x)) -> GettingCloser(x, y)
    ColOf(x) = White          function equality, stored as ColOfRel(x, White)
    !Moves(x)                 negation
    (x != y)                  term equality

A rule is ``[forall vars:]* conj -> literal`` whose head is positive and not
an equality; a query is a ``conj``, literals joined by ``&``.  Variables are
single lowercase letters or ``?name``; everything else in argument position
is a constant.  Function terms such as ``P(f(x))`` are rejected: a declared
function appears only in its equality form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

import yaml

from .fol import Const, Literal, Term, Var, is_var_name

FUNC_REL_SUFFIX = "Rel"
FORALL = "forall"
EXISTS = "exists"


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
# Tokenizer / parser for the shared rule and query syntax
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<arrow>->)|(?P<name>{_NAME})"
    rf"|(?P<qvar>\?{_NAME})|(?P<punct>[(),:&|!=]))"
)
_NAME_RE = re.compile(_NAME)


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


def is_constant_name(text) -> bool:
    """Whether rule and query text reads ``text`` as one constant: a name
    token that is not a variable."""
    return isinstance(text, str) and bool(_NAME_RE.fullmatch(text)) and not is_var_name(text)


class _Parser:
    """Recursive descent over the token list.

    Rule text is ``[forall vars:]* conj -> literal``, which may also be
    wrapped whole in parentheses; query text is ``conj``.  A ``conj`` is
    literals joined by ``&``; each literal may be negated any number of
    times and wrapped in parentheses.  Anything else raises a ParseError at
    the token where it appears.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def reject(self, t: _Token, message: str):
        if t.text == "|":
            message = "'|' is not supported: rule bodies and queries are conjunctions"
        elif t.kind == "arrow":
            message = "'->' appears once in a rule, between its body and its head"
        raise ParseError(t.pos, message)

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            self.reject(t, f"expected {text!r}, found {t.text or 'end of input'!r}")
        return t

    def end(self) -> None:
        t = self.peek()
        if t.kind != "end":
            self.reject(t, f"unexpected trailing input {t.text!r}")

    def rule(self) -> tuple[tuple[Literal, ...], Literal]:
        while self.peek().kind == "name" and self.peek().text in (FORALL, EXISTS):
            if self.peek().text == EXISTS:
                raise ParseError(self.peek().pos, "only universal quantifiers are allowed")
            self.next()
            while True:
                t = self.next()
                if t.kind != "qvar" and not (t.kind == "name" and is_var_name(t.text)):
                    raise ParseError(t.pos, f"expected a variable, found {t.text!r}")
                if self.peek().text != ",":
                    break
                self.next()
            self.expect(":")
        body, head = self.conj(top=True)
        if head is None:
            self.reject(self.peek(), f"expected '->', found {self.peek().text or 'end of input'!r}")
        self.end()
        return body, head

    def query(self) -> tuple[Literal, ...]:
        t = self.peek()
        if t.kind == "name" and t.text in (FORALL, EXISTS):
            raise ParseError(t.pos, "queries are implicitly existential; drop the quantifier")
        body, _ = self.conj(top=False)
        self.end()
        return body

    def conj(self, top: bool) -> tuple[tuple[Literal, ...], Literal | None]:
        """Literals joined by ``&``, and when ``top`` the ``-> head`` of a
        rule.  The head is None for a plain conjunction."""
        body, head = self.unit(top)
        if head is not None:  # a whole rule in parentheses
            return body, head
        while self.peek().text == "&":
            self.next()
            body += self.unit(False)[0]
        if self.peek().kind == "arrow" and top:
            self.next()
            head = self.head()
        return body, head

    def unit(self, top: bool) -> tuple[tuple[Literal, ...], Literal | None]:
        t = self.peek()
        if t.text == "!":
            self.next()
            inner, _ = self.unit(False)
            if len(inner) != 1:
                raise ParseError(t.pos, "'!' applies to one literal, not to a conjunction")
            return (inner[0].negate(),), None
        if t.text == "(":
            self.next()
            inner = self.conj(top)
            self.expect(")")
            if self.peek().text == "=":
                raise ParseError(self.peek().pos, "equality must be written inside the parentheses")
            return inner
        return (self.atom(),), None

    def head(self) -> Literal:
        t = self.peek()
        lits, _ = self.unit(False)
        if len(lits) != 1 or lits[0].negated:
            raise ParseError(t.pos, "the head must be one positive literal")
        if lits[0].pred == "=":
            raise ParseError(t.pos, "the head cannot be an equality: '=' compares terms "
                                    "and derives nothing")
        if self.peek().text == "&":
            raise ParseError(self.peek().pos, "the head must be one positive literal")
        return lits[0]

    def atom(self) -> Literal:
        if self.peek().kind in ("name", "qvar") and self._equality_follows(self.i + 1):
            left = self.term()
            negated = self.next().text == "!"
            if negated:
                self.expect("=")
            return Literal("=", (left, self.term()), negated)
        t = self.next()
        if t.kind != "name":
            raise ParseError(t.pos, f"expected a predicate, found {t.text or 'end of input'!r}")
        name = t.text
        self.expect("(")
        args = [self.term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        if self.peek().text == "=":
            self.next()
            value = self.term()
            # Function equality normalizes to the function's relation form.
            return Literal(name + FUNC_REL_SUFFIX, tuple(args) + (value,))
        return Literal(name, tuple(args))

    def _equality_follows(self, i: int) -> bool:
        """Whether the tokens from ``i`` on start with ``=`` or ``!=``."""
        t = self.tokens[i]
        return t.text == "=" or (t.text == "!" and self.tokens[i + 1].text == "=")

    def term(self) -> Term:
        t = self.next()
        if t.kind == "qvar":
            return Var(t.text[1:])
        if t.kind != "name":
            raise ParseError(t.pos, f"expected a term, found {t.text or 'end of input'!r}")
        if self.peek().text == "(":
            raise ParseError(t.pos, f"arguments are constants or variables; write the "
                                    f"function {t.text} as {t.text}(...) = value and "
                                    f"declare it under functions:")
        if is_var_name(t.text):
            return Var(t.text)
        return Const(t.text)


def parse_rule(name: str, text: str) -> RuleDecl:
    """Parse rule text ``[forall vars:]* conj -> literal``; errors name the rule."""
    try:
        body, head = _Parser(text).rule()
    except ParseError as e:
        raise ParseError(e.position, e.message, f"rule {name!r}") from e
    return RuleDecl(name, head, body)


def parse_conjunction(text: str) -> tuple[Literal, ...]:
    """Parse query text, a conjunction of literals, into its conjuncts."""
    return _Parser(text).query()


# ---------------------------------------------------------------------------
# Printing (round-trips through the parser)
# ---------------------------------------------------------------------------

def format_literal(lit: Literal, functions: tuple[str, ...] = ()) -> str:
    """Render a literal so that it parses back; function relations print in
    their equality form, parenthesized like term equality, and any other
    literal as ``str(lit)``."""
    base = lit.pred.removesuffix(FUNC_REL_SUFFIX)
    if lit.pred.endswith(FUNC_REL_SUFFIX) and base in functions and len(lit.args) >= 2:
        sign = "!" if lit.negated else ""
        head = ", ".join(str(a) for a in lit.args[:-1])
        return f"{sign}({base}({head}) = {lit.args[-1]})"
    return str(lit)


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
    """A Datalog rule: one positive literal, the head, derived wherever the
    body, a conjunction of possibly negated literals, holds."""

    name: str
    head: Literal
    body: tuple[Literal, ...]

    def __str__(self):
        """The rule as text that ``parse_rule`` reads back to this rule."""
        names = dict.fromkeys(a for lit in (*self.body, self.head)
                              for a in lit.args if isinstance(a, Var))
        prefix = f"forall {', '.join(map(str, names))}: " if names else ""
        body = " & ".join(map(format_literal, self.body))
        return f"{prefix}({body}) -> {format_literal(self.head)}"


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


def _check_usage(rules: tuple[RuleDecl, ...], decls: dict) -> None:
    for r in rules:
        for lit in (r.head, *r.body):
            if lit.pred == "=":
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


def _mapping(value, entry: str) -> dict:
    """A section or entry that must be a mapping; an empty one reads as {}."""
    value = value or {}
    if not isinstance(value, dict):
        raise ParseError(None, f"must be a mapping, not {value!r}", entry)
    return value


def _field(row: dict, key: str, entry: str):
    if key not in row:
        raise ParseError(None, f"missing key {key!r}", entry)
    return row[key]


def _name(name, entry: str) -> str:
    if not isinstance(name, str) or not name:
        raise ParseError(None, f"name must be a non-empty string, not {name!r}", entry)
    return name


# PyYAML's C loader, when it was built with libyaml, reads a rule file
# several times faster than the Python one.
if hasattr(yaml, "CSafeLoader"):
    class _CLoader(yaml.CSafeLoader):
        def resolve(self, kind, value, implicit):
            # Only an empty scalar under a bare '!' tag comes here implicit
            # in neither style.  The C loader reads it as '' where the
            # Python loader reads None or rejects the document.
            if implicit == (False, False):
                raise yaml.YAMLError("bare '!' tag")
            return super().resolve(kind, value, implicit)
    _YAML_LOADER = _CLoader
else:
    _YAML_LOADER = yaml.SafeLoader


def _load_yaml(text: str):
    """The YAML document in ``text``.  What the C loader does not read as a
    mapping, or reads with a bare ``!`` tag, is read again by the Python
    loader, so the result and the errors are the Python loader's; its errors
    point at the column."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        doc = None
    return doc if isinstance(doc, dict) else yaml.load(text, Loader=yaml.SafeLoader)


def parse_rule_file(text: str) -> RuleSet:
    """Parse a LogicPad YAML document into a RuleSet."""
    try:
        doc = _load_yaml(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark else ""
        raise ParseError(None, f"invalid YAML: {e}", where) from e
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(None, f"must be a YAML mapping, not {doc!r}", "rule file")

    decls: list[PredicateDecl] = []
    seen: set[str] = set()
    for where, row in _entries(doc, "predicates"):
        name = _name(_field(row, "name", where), where)
        entry = f"predicate {name!r}"
        if name in seen:
            raise ParseError(None, "duplicate declaration", entry)
        seen.add(name)
        kind = row.get("source", "atomic")
        if kind not in ("atomic", "derived"):
            raise ParseError(None, f"source must be atomic or derived, not {kind!r}", entry)
        arity = _field(row, "arity", entry)
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise ParseError(None, f"arity must be an integer, not {arity!r}", entry)
        decls.append(PredicateDecl(name, arity, kind, row.get("doc", "")))

    functions = tuple(_name(_field(row, "name", where), where)
                      for where, row in _entries(doc, "functions"))
    for fname in functions:
        rel = fname + FUNC_REL_SUFFIX
        if rel not in seen:
            seen.add(rel)
            decls.append(PredicateDecl(rel, 2, "atomic", f"relation form of function {fname}"))

    rules: list[RuleDecl] = []
    for idx, (where, row) in enumerate(_entries(doc, "rules")):
        name = _name(row.get("name", f"rule{idx}"), where)
        if any(r.name == name for r in rules):
            raise ParseError(None, "duplicate rule name", f"rule {name!r}")
        rules.append(parse_rule(name, _field(row, "fol", f"rule {name!r}")))

    decl_map = {d.name: d for d in decls}
    _check_usage(tuple(rules), decl_map)
    strata = stratify(tuple(decls), tuple(rules))

    # Question words match case-insensitively; on duplicate keys the later
    # one wins.  Colors and types become fact constants, so FOL text must be
    # able to name them.
    vocabulary = {section: {str(k).lower(): v
                            for k, v in _mapping(table, f"vocabulary {section}").items()}
                  for section, table in _mapping(doc.get("vocabulary"), "vocabulary").items()}
    for section in ("colors", "types"):
        for word, target in vocabulary.get(section, {}).items():
            if not is_constant_name(target):
                raise ParseError(None, f"{target!r} is not a constant name",
                                 f"vocabulary {section}[{word!r}]")
    templates = _mapping(doc.get("templates"), "templates")
    for pred, tpl in templates.items():
        if not isinstance(tpl, str):
            raise ParseError(None, f"must be a string, not {tpl!r}", f"template {pred!r}")

    return RuleSet(
        declarations=tuple(decls),
        functions=functions,
        rules=tuple(rules),
        strata=strata,
        vocabulary=vocabulary,
        templates=templates,
    )


def load_rule_file(path) -> RuleSet:
    with open(path, "r", encoding="utf-8") as f:
        return parse_rule_file(f.read())


def default_ruleset() -> RuleSet:
    """The built-in rule file covering the full predicate catalog."""
    text = resources.files("scenelogic").joinpath("rules/default.yaml").read_text("utf-8")
    return parse_rule_file(text)
