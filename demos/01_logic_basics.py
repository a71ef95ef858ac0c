"""
Logic basics: terms, rules, and unification
===========================================

The knowledge engine represents everything as first-order literals over
constants (vehicle01, White) and variables (x, y).  Rules are Datalog: a
conjunction of possibly negated literals implies one positive literal.  This
script walks through the value types, how rule text becomes a head and a
body, and the two operations every other layer builds on: unification and
substitution.
"""

from scenelogic import Const, Literal, Var, apply, unify
from scenelogic.logicpad import ParseError, parse_conjunction, parse_rule

x, y = Var("x"), Var("y")

# A ground literal and a pattern with one variable.
pattern = Literal("GettingCloser", (Const("vehicle01"), y))
fact = Literal("GettingCloser", (Const("vehicle01"), Const("pedestrian01")))

subst = unify(pattern, fact)
print("unifier:", {str(k): str(v) for k, v in subst.items()})
print("applied:", apply(subst, pattern))

# Rule text parses straight into a head and a body; function equality like
# ColOf(x) = White normalizes to the relation ColOfRel(x, White).
rule = parse_rule(
    "white_constant_speed",
    "forall x: (Vehicle(x) & ColOf(x) = White & !SpeedUp(x) & !SpeedDown(x)) -> ConstantSpeed(x)",
)
print("\nrule:   ", rule)
print("head:   ", rule.head)
for lit in rule.body:
    print("body:   ", lit)

# Grounding the rule for one object is a substitution over head and body.
ground = {x: Const("vehicle01")}
print("\nground: ", apply(ground, rule.head), "<-",
      " & ".join(str(apply(ground, lit)) for lit in rule.body))

# A query is a conjunction of literals; unifying a conjunct with a fact
# binds the query's variables.
conjuncts = parse_conjunction("Vehicle(x) & Moves(x)")
print("\nquery:  ", " & ".join(map(str, conjuncts)))
binding = unify(conjuncts[0], Literal("Vehicle", (Const("vehicle01"),)))
print("binding:", {str(k): str(v) for k, v in binding.items()})

# Anything that is not a rule shape is rejected where it appears.
for text in ("forall x: (Moves(x) | Appears(x)) -> Seen(x)",
             "forall x: Moves(x) -> !Stopped(x)"):
    try:
        parse_rule("bad", text)
    except ParseError as e:
        print("\nrejected:", e)
