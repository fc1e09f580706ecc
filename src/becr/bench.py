"""Side-by-side index comparison: scores, timing, correlation, CSV emission.

The report carries one row per concept.  Per-concept times are wall-clock
nanoseconds, measured sequentially on one thread as the minimum over
``timing_repeats`` runs after one warm-up run; BECR timing includes the
minimal-generator computation it depends on.  The summary correlation is
Pearson's coefficient over the (BECR, stability) value pairs and is None
when it is undefined (fewer than two concepts, or an index constant across
all concepts).
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .context import FormalContext
from .generators import IntentTooLarge
from .lattice import (
    DEFAULT_CONCEPT_BUDGET,
    ConceptLattice,
    build_covers,
    enumerate_concepts,
)
from .relevance import BaseRule, BecrBreakdown, StabilityScore, becr, stability

# choices for score_concepts: which of the two indices to compute
INDEXES = ("becr", "stability", "both")

REPORT_COLUMNS = (
    "concept_id",
    "extent_size",
    "intent_size",
    "alpha",
    "beta",
    "becr",
    "stability",
    "n_mingen",
    "n_base",
    "n_equiv",
    "t_becr_ns",
    "t_stability_ns",
)


class ZeroVariance(ValueError):
    """Correlation undefined: an input has no variance."""


class LengthMismatch(ValueError):
    """Paired inputs differ in length."""


class EmptyInput(ValueError):
    """An aggregate over no values."""


@dataclass(frozen=True)
class ScoreRow:
    concept_id: int
    extent_size: int
    intent_size: int
    alpha: Fraction
    beta: Fraction
    becr: Fraction
    stability: Fraction
    n_mingen: int
    n_base: int
    n_equiv: int
    t_becr_ns: int
    t_stability_ns: int


@dataclass
class ComparisonReport:
    rows: list[ScoreRow]
    pearson_xi: float | None
    mean_time_becr_ns: float
    mean_time_stability_ns: float
    dataset_stats: tuple[int, int, int, int, float]  # |G| |M| |I| |C| density


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Raises LengthMismatch on unequal lengths and ZeroVariance when the
    coefficient is undefined (a constant input, or fewer than two points).
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} xs vs {len(ys)} ys")
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError as err:
        raise ZeroVariance(str(err)) from None
    return max(-1.0, min(1.0, r))


def mean_time(times_ns: Sequence[int]) -> float:
    """Arithmetic mean of per-concept times, in nanoseconds."""
    if not times_ns:
        raise EmptyInput("no times to average")
    return statistics.fmean(times_ns)


def dataset_stats(
    ctx: FormalContext, n_concepts: int
) -> tuple[int, int, int, int, float]:
    """(|G|, |M|, |I|, |C|, density); density reads 0.0 on a 0-area context."""
    density = (float(ctx.density())
               if ctx.n_objects and ctx.n_attributes else 0.0)
    return (ctx.n_objects, ctx.n_attributes, ctx.n_incidences, n_concepts,
            density)


def _min_of_repeats(fn, repeats: int) -> int:
    fn()  # warm-up
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def score_concepts(
    ctx: FormalContext,
    lattice: ConceptLattice,
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
    index: str = "both",
) -> list[tuple[BecrBreakdown | None, StabilityScore | None]]:
    """(BECR breakdown, stability) for each concept id, untimed.

    ``index`` is one of INDEXES; an index not selected is never computed
    and reads None, so "becr" is not bound by the stability intent guard.
    A tripped guard re-raises IntentTooLarge naming the concept id.
    """
    if index not in INDEXES:
        raise ValueError(f"index must be one of {INDEXES}, got {index!r}")
    scored = []
    for i, concept in enumerate(lattice.concepts):
        try:
            breakdown = (None if index == "stability"
                         else becr(ctx, lattice, concept, rule))
            stab = None if index == "becr" else stability(ctx, concept)
        except IntentTooLarge as err:
            raise IntentTooLarge(f"concept {i}: {err}") from None
        scored.append((breakdown, stab))
    return scored


def run_comparison(
    ctx: FormalContext,
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
    timing_repeats: int = 5,
    concept_budget: int = DEFAULT_CONCEPT_BUDGET,
) -> ComparisonReport:
    """Score every concept with both indices and optionally time them.

    ``timing_repeats`` = 0 disables the timing pass (times report as 0).
    """
    if timing_repeats < 0:
        raise ValueError("timing_repeats must be >= 0")
    concepts = enumerate_concepts(ctx, budget=concept_budget)
    lattice = build_covers(concepts)

    rows = []
    for i, (breakdown, stab) in enumerate(score_concepts(ctx, lattice, rule)):
        concept = concepts[i]
        t_becr = t_stab = 0
        if timing_repeats > 0:
            t_becr = _min_of_repeats(
                lambda: becr(ctx, lattice, concept, rule), timing_repeats
            )
            t_stab = _min_of_repeats(
                lambda: stability(ctx, concept), timing_repeats
            )
        rows.append(
            ScoreRow(
                concept_id=i,
                extent_size=concept.extent.bit_count(),
                intent_size=concept.intent.bit_count(),
                alpha=breakdown.alpha,
                beta=breakdown.beta,
                becr=breakdown.becr,
                stability=stab.value,
                n_mingen=breakdown.generator_count,
                n_base=breakdown.base_attributes.bit_count(),
                n_equiv=breakdown.equivalent_attributes.bit_count(),
                t_becr_ns=t_becr,
                t_stability_ns=t_stab,
            )
        )

    xi = None
    if len(rows) >= 2:
        try:
            xi = pearson(
                [float(r.becr) for r in rows],
                [float(r.stability) for r in rows],
            )
        except ZeroVariance:
            xi = None
    tau_becr = mean_time([r.t_becr_ns for r in rows]) if rows else 0.0
    tau_stab = mean_time([r.t_stability_ns for r in rows]) if rows else 0.0
    return ComparisonReport(rows, xi, tau_becr, tau_stab,
                            dataset_stats(ctx, len(concepts)))


def format_score(value: Fraction) -> str:
    """A score as written to every CSV: six decimals."""
    return f"{float(value):.6f}"


def emit_csv(report: ComparisonReport, include_timing: bool = True) -> str:
    """Report CSV; timing columns are dropped when ``include_timing`` is False."""
    columns = REPORT_COLUMNS if include_timing else REPORT_COLUMNS[:-2]
    lines = [",".join(columns)]
    for r in report.rows:
        fields = [
            str(r.concept_id),
            str(r.extent_size),
            str(r.intent_size),
            format_score(r.alpha),
            format_score(r.beta),
            format_score(r.becr),
            format_score(r.stability),
            str(r.n_mingen),
            str(r.n_base),
            str(r.n_equiv),
        ]
        if include_timing:
            fields += [str(r.t_becr_ns), str(r.t_stability_ns)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def emit_scatter(report: ComparisonReport) -> str:
    """Two-column becr,stability CSV with exactly one line per concept."""
    return "".join(
        f"{format_score(r.becr)},{format_score(r.stability)}\n"
        for r in report.rows
    )
