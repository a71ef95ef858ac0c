"""
Inference over a fact base
==========================

Facts are ground literals collected per sliding window.  Saturation runs
the rule file's derived rules to a fixpoint, stratum by stratum, reading a
negated body atom as "absent from the completed lower strata".  Queries
then enumerate every satisfying binding, with a proof trace.
"""

from scenelogic import (
    Const,
    FactSet,
    Literal,
    answer_to_text,
    check_trace,
    default_ruleset,
    parse_fol_query,
    resolve,
    saturate,
)

rules = default_ruleset()


def fact(pred, *names):
    return Literal(pred, tuple(Const(n) for n in names))


# The window's compiled facts: one white car at the center, moving at
# steady speed, and a pedestrian walking closer to it.
base = FactSet.of([
    fact("Vehicle", "vehicle01"),
    fact("TypeOfRel", "vehicle01", "Car"),
    fact("ColOfRel", "vehicle01", "White"),
    fact("AtCenter", "vehicle01"),
    fact("Moves", "vehicle01"),
    fact("Pedestrian", "pedestrian01"),
    fact("Moves", "pedestrian01"),
    fact("DistanceDecreases", "pedestrian01", "vehicle01"),
])

sat = saturate(base, rules)
print("derivations:")
for step in sat.trace.steps:
    print("  ", step)

print("\ntrace is sound:", check_trace(sat.trace, base, rules))

# The question from the worked example, in FOL text form.
q = parse_fol_query(
    "TypeOf(x) = Car & ColOf(x) = White & AtCenter(x) & ConstantSpeed(x)", rules)
answer = resolve(base, rules, q)
print("\nquery answer:", answer_to_text(answer, q))

# Binding enumeration: who is getting closer to the car?
q2 = parse_fol_query("GettingCloser(y, vehicle01)", rules)
a2 = resolve(base, rules, q2)
print("approaching: ", answer_to_text(a2, q2))
