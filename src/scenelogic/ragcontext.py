"""Context export for external language models: window facts as template
sentences, optionally narrowed to the inference trace that answered a query.

``facts_only`` payloads carry every fact sentence; ``with_inference`` payloads
carry the verdict plus only the sentences the proof leaned on: a Yes cites
``Answer.support``, found in the same walk as its trace.
A fact set keeps each sentence it had rendered, per template table, as it
keeps its indexes: a sentence is rendered at most once per fact set and
table, and lives as long as the fact set.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

from .fol import Const, Literal
from .inference import Answer, FactSet, Query
from .logicpad import RuleSet
from .questions import answer_to_text, print_query

FACTS_ONLY = "facts_only"
WITH_INFERENCE = "with_inference"


class MissingTemplate(KeyError):
    def __str__(self):
        return f"no sentence template for predicate {self.args[0]!r}"


@dataclass(frozen=True, eq=False)
class TemplateTable:
    """Sentence templates; a table is equal only to itself, so that it can key
    the sentences a fact set keeps per table."""

    templates: dict  # predicate name -> sentence template

    def render(self, fact: Literal) -> str:
        tpl = self.templates.get(fact.pred)
        if tpl is None:
            raise MissingTemplate(fact.pred)
        return tpl.format(*[str(a) for a in fact.args])

    def validate(self, rules: RuleSet) -> None:
        """Every declared predicate templated, with the fields ``render``'s
        ``str.format`` reads being exactly the bare slots ``{0}``.. ``{arity-1}``."""
        for d in rules.declarations:
            tpl = self.templates.get(d.name)
            if tpl is None:
                raise MissingTemplate(d.name)
            try:
                fields = {name + (f"!{conv}" if conv else "") + (f":{spec}" if spec else "")
                          for _, name, spec, conv in string.Formatter().parse(tpl)
                          if name is not None}
            except ValueError as e:
                raise ValueError(f"template for {d.name}: {e}") from None
            if fields != {str(i) for i in range(d.arity)}:
                raise ValueError(
                    f"template for {d.name} uses slots {sorted(fields)}, arity is {d.arity}"
                )
        extra = set(self.templates) - {d.name for d in rules.declarations}
        if extra:
            raise ValueError(f"templates for undeclared predicates: {sorted(extra)}")


def template_table(rules: RuleSet) -> TemplateTable:
    """The table shipped in the rule file's ``templates`` section."""
    tbl = TemplateTable(dict(rules.templates))
    tbl.validate(rules)
    return tbl


def _render(lits, facts: FactSet, tbl: TemplateTable) -> list[str]:
    """``tbl.render`` of each literal, rendering each at most once per fact
    set and table: the sentences are kept with ``facts`` per table."""
    memo = facts.__dict__.setdefault("_sentences", {}).setdefault(tbl, {})
    out = []
    for f in lits:
        s = memo.get(f)
        if s is None:
            s = memo[f] = tbl.render(f)
        out.append(s)
    return out


def export_templates(facts: FactSet, tbl: TemplateTable) -> list[str]:
    """One sentence per fact, ordered by predicate then arguments."""
    return _render(facts.sorted(), facts, tbl)


@dataclass(frozen=True)
class ContextPayload:
    question: str
    retrieved: str
    mode: str

    def to_json(self) -> str:
        return json.dumps(
            {"question": self.question, "mode": self.mode, "retrieved": self.retrieved},
            indent=1, sort_keys=True,
        )


def _support_facts(q: Query, a: Answer, base: FactSet) -> list[Literal]:
    """Base facts the answer rests on: the support its proof matched; for a
    refuted query, the facts about the constants the query names."""
    if a.truth:
        return [f for f in a.support if f in base]
    named = {t.name for c in q.conjuncts for t in c.args if isinstance(t, Const)}
    found: dict[int, Literal] = {}
    for name in named:
        found.update(base.by_constant.get(name, {}))
    return [found[i] for i in sorted(found)]


def build_context(q: Query, a: Answer, facts: FactSet, tbl: TemplateTable,
                  rules: RuleSet, mode: str = WITH_INFERENCE,
                  question_text: str | None = None) -> ContextPayload:
    """Assemble the retrieval block handed to a language model.

    Sections appear in the fixed order FACTS / VERDICT / SUPPORT; the
    facts_only mode emits the FACTS section alone.
    """
    question = question_text if question_text is not None else print_query(q, rules)

    if mode == FACTS_ONLY:
        sentences = export_templates(facts, tbl)
        body = "FACTS\n" + "\n".join(sentences) + "\n"
        return ContextPayload(question, body, mode)
    if mode != WITH_INFERENCE:
        raise ValueError(f"unknown context mode {mode!r}")

    sentences = _render(_support_facts(q, a, facts), facts, tbl)
    lines = ["FACTS"]
    lines.extend(sentences)
    lines.append("")
    lines.append("VERDICT")
    lines.append(answer_to_text(a, q))
    if a.trace.steps:
        lines.append("")
        lines.append("SUPPORT")
        lines.extend(str(s) for s in a.trace.steps)
    return ContextPayload(question, "\n".join(lines) + "\n", mode)
