"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs one pipeline per workload and context seed (the default 42 and the
held-out 7), checks it with the oracles, and writes the digests of its
score record and cover relation to perfbench/reference.json.  The digests
do not depend on the run seed.  Regenerate only from a commit whose
outputs are known to be right: a run whose output differs from these
digests fails.
"""
from __future__ import annotations

import json
import sys

import pipeline
from check import Checker
from run import HERE, load_becr
from workloads import (
    DEFAULT_CONTEXT_SEED, HELD_OUT_CONTEXT_SEED, WORKLOADS, build_input,
)


def main() -> int:
    becr = load_becr()
    references = {}
    for workload in WORKLOADS.values():
        for context_seed in (DEFAULT_CONTEXT_SEED, HELD_OUT_CONTEXT_SEED):
            inp, _ = build_input(becr, workload, context_seed, seed=0)
            run = pipeline.run_timed if workload.timed else pipeline.run_stages
            outcome = run(becr, inp)
            checker = Checker(becr, inp, reference=None)
            errors = checker.check(outcome) + checker.deep_check(outcome)
            if errors:
                print(f"{workload.name} context seed {context_seed}: {errors}")
                return 1
            summary = checker.summary(outcome)
            references.setdefault(workload.name, {})[str(context_seed)] = summary
            print(f"{workload.name} context seed {context_seed}: "
                  f"{summary['concepts']} concepts, "
                  f"{len(summary['failures'])} failed scorings", flush=True)
    (HERE / "reference.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
