"""One scoring pipeline: context text in, serialised score table out.

Two forms.  ``run_stages`` calls the public stage functions that
``bench.run_comparison`` calls, in the same order, but catches a tripped
intent guard per concept and scoring, so that one concept over a guard is
one failed scoring and not an aborted pipeline.  ``run_timed`` is the
``becr bench`` path itself: ``run_comparison`` with its timing pass.  Both
end with ``bench.emit_csv``.

Every call goes through the package namespace at call time, so the tracer
can rebind the names.
"""
from __future__ import annotations

from dataclasses import dataclass

from workloads import TIMING_REPEATS, WorkloadInput


@dataclass
class Outcome:
    ctx: object  # the parsed FormalContext
    # per concept id: (alpha, beta, becr, stability numerator, n_mingen,
    # n_base, n_equiv); a failed scoring leaves its fields None
    records: list[tuple]
    failures: list[tuple[str, int]]  # (index name, concept id)
    table: str
    # None when run_comparison kept them to itself
    concepts: list | None = None
    lattice: object | None = None
    tau_ns: tuple[float, float] | None = None  # bench's own mean times


def parse(becr, inp: WorkloadInput):
    return (becr.parse_cxt if inp.fmt == "cxt" else becr.parse_fimi)(inp.text)


def run_stages(becr, inp: WorkloadInput) -> Outcome:
    ctx = parse(becr, inp)
    concepts = becr.enumerate_concepts(ctx)
    lattice = becr.build_covers(concepts)
    records, failures, rows = [], [], []
    for i, concept in enumerate(concepts):
        try:
            b = becr.becr(ctx, lattice, concept)
        except becr.IntentTooLarge:
            b = None
            failures.append(("becr", i))
        try:
            s = becr.stability(ctx, concept)
        except becr.IntentTooLarge:
            s = None
            failures.append(("stability", i))
        records.append((
            None if b is None else b.alpha,
            None if b is None else b.beta,
            None if b is None else b.becr,
            None if s is None else s.numerator,
            None if b is None else b.generator_count,
            None if b is None else b.base_attributes.bit_count(),
            None if b is None else b.equivalent_attributes.bit_count(),
        ))
        if b is not None and s is not None:
            rows.append(becr.ScoreRow(
                i, concept.extent.bit_count(), concept.intent.bit_count(),
                b.alpha, b.beta, b.becr, s.value, b.generator_count,
                b.base_attributes.bit_count(),
                b.equivalent_attributes.bit_count(), 0, 0,
            ))
    xi = None
    if len(rows) >= 2:
        try:
            xi = becr.pearson(
                [float(r.becr) for r in rows], [float(r.stability) for r in rows]
            )
        except becr.ZeroVariance:
            pass
    stats = (ctx.n_objects, ctx.n_attributes, ctx.n_incidences,
             len(concepts), float(ctx.density()))
    report = becr.ComparisonReport(rows, xi, 0.0, 0.0, stats)
    table = becr.emit_csv(report, include_timing=False)
    return Outcome(ctx, records, failures, table, concepts, lattice)


def run_timed(becr, inp: WorkloadInput) -> Outcome:
    ctx = parse(becr, inp)
    report = becr.run_comparison(ctx, timing_repeats=TIMING_REPEATS)
    table = becr.emit_csv(report)
    records = [
        (r.alpha, r.beta, r.becr, int(r.stability * (1 << r.intent_size)),
         r.n_mingen, r.n_base, r.n_equiv)
        for r in report.rows
    ]
    return Outcome(ctx, records, [], table,
                   tau_ns=(report.mean_time_becr_ns,
                           report.mean_time_stability_ns))
