"""Output checks, made outside the timed region of every pipeline.

Concepts are compared by their intent, which the run seed does not change
(it shuffles objects only).

- The score record (alpha, beta, becr, the stability numerator over 2^|B|,
  n_mingen, n_base, n_equiv, and the failed scorings) and the cover
  relation are digested and compared with the reference recorded from the
  seed commit of this benchmark, per workload and context seed.
- The stability numerators of all concepts sum to 2^|M|: every subset of M
  closes to exactly one intent.  While a guard keeps a concept unscored the
  sum must stay below 2^|M|; once the guard is lifted the concept is
  checked by the equality.
- After the last pipeline, a fixed sample of small concepts is compared
  with ``stability_oracle`` and ``brute_force_minimal_generators``, and on
  contexts with few objects the concept list with ``brute_force_concepts``.
"""
from __future__ import annotations

import hashlib
import json

from pipeline import Outcome
from workloads import WorkloadInput

ORACLE_SAMPLE = 8
ORACLE_MAX_INTENT = 10  # the brute-force oracles visit 2^|B| subsets
BRUTE_FORCE_MAX_OBJECTS = 16


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _frac(value):
    return None if value is None else [value.numerator, value.denominator]


class Checker:
    def __init__(self, becr, inp: WorkloadInput, reference: dict | None):
        self.becr = becr
        self.inp = inp
        self.reference = reference
        self._lattice = None  # for outcomes whose lattice run_comparison kept

    def lattice(self, outcome: Outcome):
        """(concepts, ConceptLattice) of an outcome, rebuilt if not kept."""
        if outcome.lattice is not None:
            return outcome.concepts, outcome.lattice
        if self._lattice is None:
            concepts = self.becr.enumerate_concepts(outcome.ctx)
            self._lattice = concepts, self.becr.build_covers(concepts)
        return self._lattice

    def keys(self, outcome: Outcome) -> list[int]:
        concepts, _ = self.lattice(outcome)
        return [c.intent for c in concepts]

    def summary(self, outcome: Outcome) -> dict:
        """What the reference records: digests, concept count, failures."""
        concepts, lattice = self.lattice(outcome)
        keys = self.keys(outcome)
        scores = sorted(
            [keys[i], concepts[i].extent.bit_count(), _frac(a), _frac(b),
             _frac(v), stab, n_gen, n_base, n_equiv]
            for i, (a, b, v, stab, n_gen, n_base, n_equiv)
            in enumerate(outcome.records)
        )
        covers = sorted(
            [keys[i], keys[j]]
            for i, ups in enumerate(lattice.upper_covers) for j in ups
        )
        return {
            "concepts": len(concepts),
            "scores": _digest(scores),
            "covers": _digest(covers),
            "failures": sorted([kind, keys[i]] for kind, i in outcome.failures),
        }

    def check(self, outcome: Outcome) -> list[str]:
        """Cheap checks for every pipeline; returns the failures found."""
        ctx = outcome.ctx
        errors = []
        if (ctx.n_objects != self.inp.n_objects
                or list(ctx.attributes) != self.inp.attributes):
            return [f"parsed context has shape {ctx.n_objects}x"
                    f"{ctx.n_attributes}, expected {self.inp.n_objects}x"
                    f"{len(self.inp.attributes)} with the same attributes"]
        concepts, _ = self.lattice(outcome)
        if len(outcome.records) != len(concepts):
            return [f"{len(outcome.records)} score records for "
                    f"{len(concepts)} concepts"]
        if self.reference is not None:
            got = self.summary(outcome)
            for field, want in self.reference.items():
                if got[field] != want:
                    errors.append(f"{field} differs from the reference")
        total = sum(r[3] for r in outcome.records if r[3] is not None)
        everything = 1 << ctx.n_attributes
        unscored = any(kind == "stability" for kind, _ in outcome.failures)
        if total > everything or (total != everything and not unscored):
            errors.append(
                f"stability numerators sum to {total}, expected 2^|M| = "
                f"{everything}"
            )
        failed = {i for _, i in outcome.failures}
        rows = len(concepts) - len(failed)
        if outcome.table.count("\n") != rows + 1:
            errors.append(f"score table does not hold {rows} rows")
        return errors

    def deep_check(self, outcome: Outcome) -> list[str]:
        """Oracle comparisons, run once on the last pipeline's output."""
        becr = self.becr
        ctx = outcome.ctx
        concepts, lattice = self.lattice(outcome)
        keys = self.keys(outcome)
        errors = []
        small = sorted(
            (i for i, c in enumerate(concepts)
             if c.intent.bit_count() <= ORACLE_MAX_INTENT),
            key=keys.__getitem__,
        )
        picks = sorted({small[k * len(small) // ORACLE_SAMPLE]
                        for k in range(ORACLE_SAMPLE)} if small else set())
        for i in picks:
            c = concepts[i]
            record = outcome.records[i]
            oracle = becr.stability_oracle(ctx, c)
            if (record[3], 1 << c.intent.bit_count()) != tuple(oracle):
                errors.append(f"stability of concept {i} disagrees with the "
                              f"oracle")
            brute = becr.brute_force_minimal_generators(ctx, c)
            if (becr.minimal_generators(lattice, c) != brute
                    or record[4] != len(brute)):
                errors.append(f"minimal generators of concept {i} disagree "
                              f"with the oracle")
        if ctx.n_objects <= BRUTE_FORCE_MAX_OBJECTS:
            if becr.brute_force_concepts(ctx) != concepts:
                errors.append("concept list disagrees with brute_force_concepts")
        return errors
