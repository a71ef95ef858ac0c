"""One set-up sample, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_child.py SRC_DIR

Prints one JSON line: the raw seconds of ``import scenelogic`` and of
``default_ruleset()`` plus ``template_table()``, and the reference points
timed before and after them in this same process.
"""

import json
import sys
import time

from refclock import reference

ref_before = reference()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import scenelogic  # noqa: E402

t1 = time.perf_counter()
scenelogic.template_table(scenelogic.default_ruleset())
t2 = time.perf_counter()
ref_after = reference()
print(json.dumps({"import_s": t1 - t0, "rules_s": t2 - t1,
                  "ref_before": ref_before, "ref_after": ref_after,
                  "module": scenelogic.__file__}))
