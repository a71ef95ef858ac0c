"""Question parsing: a deterministic grammar for the six visual-spatial
question families, a direct FOL query parser, and a translator port for
anything the grammar does not cover.

Family labels: U1 object query, U2 velocity, U3 velocity change,
U4 appearance/disappearance, B1 relative position, B2 relative distance
change.

A rule set keeps each English or FOL text it parsed, with its checked
query, for as long as the rule set lives; the vocabulary and predicates are
the rule set's own, so another rule set parses the text again.  A text that
fails is not kept and raises on every call; a translator is asked on every
call, and its output is not kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Protocol

from .fol import Const, Literal, Var
from .logicpad import RuleSet, format_literal, parse_conjunction
from .inference import Answer, Query, check_query


class NoPatternMatch(ValueError):
    pass


class UnknownVocabulary(ValueError):
    def __init__(self, word: str):
        super().__init__(f"unknown word {word!r}")
        self.word = word


class _DescriptorShape(ValueError):
    """Internal: the captured phrase is not descriptor-shaped at all."""


@dataclass(frozen=True)
class ObjectDescriptor:
    category: str | None = None  # predicate name, e.g. "Pedestrian"
    color: str | None = None  # constant, e.g. "White"
    vtype: str | None = None  # constant, e.g. "Car"
    position: str | None = None  # predicate name, e.g. "AtCenter"

    def conjuncts(self, var: Var) -> list[Literal]:
        out = []
        if self.vtype:
            out.append(Literal("TypeOfRel", (var, Const(self.vtype))))
        if self.color:
            out.append(Literal("ColOfRel", (var, Const(self.color))))
        if self.category:
            out.append(Literal(self.category, (var,)))
        if self.position:
            out.append(Literal(self.position, (var,)))
        return out


def _parse_descriptor(phrase: str, vocab: dict) -> ObjectDescriptor:
    colors = vocab.get("colors", {})
    types = vocab.get("types", {})
    categories = vocab.get("categories", {})
    positions = vocab.get("positions", {})

    toks = phrase.split()
    if not toks or toks[0] not in ("the", "a", "an"):
        raise _DescriptorShape(phrase)
    toks = toks[1:]

    color = None
    if toks and toks[0] in colors:
        color = colors[toks[0]]
        toks = toks[1:]

    category = vtype = None
    if len(toks) >= 2 and f"{toks[0]} {toks[1]}" in categories:
        category = categories[f"{toks[0]} {toks[1]}"]
        toks = toks[2:]
    elif toks and toks[0] in types:
        vtype = types[toks[0]]
        toks = toks[1:]
    elif toks and toks[0] in categories:
        category = categories[toks[0]]
        toks = toks[1:]
    elif toks:
        raise UnknownVocabulary(toks[0])
    else:
        raise _DescriptorShape(phrase)

    position = None
    if toks:
        if (len(toks) >= 3 and toks[0] in ("at", "on", "in") and toks[1] == "the"
                and toks[2] in positions):
            position = positions[toks[2]]
            toks = toks[3:]
            if toks and toks[0] == "side":
                toks = toks[1:]
        else:
            raise UnknownVocabulary(toks[-1] if toks[0] in ("at", "on", "in") else toks[0])
    if toks:
        raise UnknownVocabulary(toks[0])
    return ObjectDescriptor(category, color, vtype, position)


# ---------------------------------------------------------------------------
# Pattern table
# ---------------------------------------------------------------------------

X, Y = Var("x"), Var("y")


def _unary(pred: str) -> Callable:
    def build(d1: ObjectDescriptor, d2=None) -> list[Literal]:
        return d1.conjuncts(X) + [Literal(pred, (X,))]
    return build


def _binary(pred: str) -> Callable:
    def build(d1: ObjectDescriptor, d2: ObjectDescriptor) -> list[Literal]:
        return d1.conjuncts(X) + d2.conjuncts(Y) + [Literal(pred, (X, Y))]
    return build


def _exists(d1: ObjectDescriptor, d2=None) -> list[Literal]:
    return d1.conjuncts(X)


@dataclass(frozen=True)
class QuestionPattern:
    category: str  # U1..U4, B1, B2
    template: re.Pattern
    logic_builder: Callable


_D1 = r"(?P<d1>.+?)"
_D2 = r"(?P<d2>.+?)"


def _p(cat: str, expr: str, builder: Callable) -> QuestionPattern:
    return QuestionPattern(cat, re.compile(f"^{expr}$"), builder)


# Longer templates come first so their shorter prefixes cannot shadow them.
PATTERNS: tuple[QuestionPattern, ...] = (
    _p("U2", f"does {_D1} move at a constant speed", _unary("ConstantSpeed")),
    _p("U2", f"is {_D1} moving at a constant speed", _unary("ConstantSpeed")),
    _p("U2", f"is {_D1} walking at a fixed pace", _unary("FixedPace")),
    _p("U3", f"is {_D1} speeding up", _unary("SpeedUp")),
    _p("U3", f"is {_D1} slowing down", _unary("SpeedDown")),
    _p("U3", f"is {_D1} accelerating", _unary("Accelerate")),
    _p("U3", f"is {_D1} decelerating", _unary("SpeedDown")),
    _p("U3", f"is {_D1} increasing its pace", _unary("IncreasePace")),
    _p("U2", f"is {_D1} standing still", _unary("Stand")),
    _p("U2", f"is {_D1} standing", _unary("Stand")),
    _p("U2", f"is {_D1} walking", _unary("Walk")),
    _p("U2", f"is {_D1} moving", _unary("Moves")),
    _p("U2", f"does {_D1} move", _unary("Moves")),
    _p("U2", f"is {_D1} stopped", _unary("Stopped")),
    _p("U2", f"has {_D1} stopped", _unary("Stopped")),
    _p("U4", f"does {_D1} appear in this window", _unary("Appears")),
    _p("U4", f"did {_D1} appear in this window", _unary("Appears")),
    _p("U4", f"did {_D1} just appear", _unary("Appears")),
    _p("U4", f"does {_D1} appear", _unary("Appears")),
    _p("U4", f"did {_D1} appear", _unary("Appears")),
    _p("U4", f"does {_D1} disappear in this window", _unary("Disappears")),
    _p("U4", f"did {_D1} disappear in this window", _unary("Disappears")),
    _p("U4", f"does {_D1} disappear", _unary("Disappears")),
    _p("U4", f"did {_D1} disappear", _unary("Disappears")),
    _p("U4", f"did {_D1} leave the view", _unary("Disappears")),
    _p("B2", f"is {_D1} getting closer to {_D2}", _binary("GettingCloser")),
    _p("B2", f"is {_D1} moving away from {_D2}", _binary("DistanceIncreases")),
    _p("B2", f"is {_D1} about to collide with {_D2}", _binary("Collide")),
    _p("B2", f"is {_D1} going to collide with {_D2}", _binary("Collide")),
    _p("B2", f"is the distance between {_D1} and {_D2} decreasing", _binary("DistanceDecreases")),
    _p("B2", f"is the distance between {_D1} and {_D2} increasing", _binary("DistanceIncreases")),
    _p("B1", f"is {_D1} close to the camera", _unary("CloseToCamera")),
    _p("B1", f"is {_D1} on the left(?: side)?", _unary("AtLeft")),
    _p("B1", f"is {_D1} on the right(?: side)?", _unary("AtRight")),
    _p("B1", f"is {_D1} at the (?:center|middle)", _unary("AtCenter")),
    _p("B1", f"is {_D1} in the (?:center|middle)", _unary("AtCenter")),
    # Greedy first slot: descriptors may themselves contain " on the left".
    _p("B1", f"is (?P<d1>.+) on {_D2}", _binary("On")),
    _p("U1", f"is there {_D1}", _exists),
)


def _normalize(text: str) -> str:
    # Trim again once the punctuation is gone: "walking ?" ends in a space.
    text = re.sub(r"[?.!,]+$", "", text.strip().lower()).strip()
    return re.sub(r"\s+", " ", text)


@dataclass(frozen=True)
class ParsedQuestion:
    query: Query
    category: str


def match_question(text: str, rules: RuleSet) -> ParsedQuestion:
    """Match a question against the pattern table and build its query."""
    normalized = _normalize(text)
    vocab_error: UnknownVocabulary | None = None
    for pattern in PATTERNS:
        m = pattern.template.match(normalized)
        if not m:
            continue
        groups = m.groupdict()
        try:
            d1 = _parse_descriptor(groups["d1"], rules.vocabulary)
            d2 = (_parse_descriptor(groups["d2"], rules.vocabulary)
                  if "d2" in groups else None)
        except _DescriptorShape:
            continue
        except UnknownVocabulary as e:
            if vocab_error is None:
                vocab_error = e
            continue
        query = Query(tuple(pattern.logic_builder(d1, d2)))
        check_query(query, rules)
        return ParsedQuestion(query, pattern.category)
    if vocab_error is not None:
        raise vocab_error
    raise NoPatternMatch(f"no grammar pattern matches {text!r}")


def parse_nl_question(text: str, rules: RuleSet) -> Query:
    """The query of ``match_question``, kept in the rule set by text."""
    parsed = rules.__dict__.setdefault("_nl_queries", {})
    q = parsed.get(text)
    if q is None:
        q = parsed[text] = match_question(text, rules).query
    return q


# ---------------------------------------------------------------------------
# Direct FOL query syntax
# ---------------------------------------------------------------------------

def _parse_fol(text: str, rules: RuleSet) -> Query:
    q = Query(parse_conjunction(text))
    check_query(q, rules)
    return q


def parse_fol_query(text: str, rules: RuleSet) -> Query:
    """Parse a conjunction of literals in the shared FOL syntax; the query is
    kept in the rule set by text."""
    parsed = rules.__dict__.setdefault("_fol_queries", {})
    q = parsed.get(text)
    if q is None:
        q = parsed[text] = _parse_fol(text, rules)
    return q


def print_query(q: Query, rules: RuleSet) -> str:
    """Render a query in the shared syntax; function relations print in
    their equality form, parenthesized."""
    return " & ".join(format_literal(lit, rules.functions) for lit in q.conjuncts)


# ---------------------------------------------------------------------------
# Answers as text
# ---------------------------------------------------------------------------

def answer_to_text(a: Answer, q: Query) -> str:
    if not a.truth:
        return "No."
    # Witnesses are the variables bound, so none occurring only under negation.
    qvars = [v for v in q.variables() if a.bindings and v in a.bindings[0]]
    if not qvars:
        head = "Yes."
    else:
        witnesses = [str(sub[qvars[0]]) if len(qvars) == 1
                     else "(" + ", ".join(f"{v} = {sub[v]}" for v in qvars) + ")"
                     for sub in a.bindings]
        verb = "satisfies" if len(witnesses) == 1 else "satisfy"
        if len(witnesses) > 2:
            listing = ", ".join(witnesses[:-1]) + f" and {witnesses[-1]}"
        else:
            listing = " and ".join(witnesses)
        head = f"Yes: {listing} {verb} the query."
    if a.trace.steps:
        asked = {c.pred for c in q.conjuncts}
        tops = [s for s in a.trace.steps if s.derived.pred in asked]
        if tops:
            summary = "; ".join(f"{s.derived} via {s.rule}" for s in tops)
            return f"{head} Evidence: {summary}."
    return head


# ---------------------------------------------------------------------------
# Translator port
# ---------------------------------------------------------------------------

class TranslatorPort(Protocol):
    """External question-to-FOL translator: question text in, one line of
    FOL query text out.  Implementations live outside this package."""

    def __call__(self, question: str) -> str: ...


def parse_question(text: str, rules: RuleSet,
                   translator: TranslatorPort | None = None) -> Query:
    """Grammar first; fall back to the translator port when provided.  The
    translator is asked on every call, and its output is not kept."""
    try:
        return parse_nl_question(text, rules)
    except (NoPatternMatch, UnknownVocabulary):
        if translator is None:
            raise
        return _parse_fol(translator(text).strip(), rules)
