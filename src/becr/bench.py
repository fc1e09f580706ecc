"""Side-by-side index comparison: scores, timing, correlation, CSV emission.

The score table has one ScoreRow per concept; ``emit_table`` writes it for
``becr bench`` and ``becr relevance``.  Per-concept times are wall-clock ns,
measured sequentially on one thread as the minimum over ``timing_repeats``
runs.  BECR timing includes the whole minimal-generator search it depends
on, and the call that computes the score is its warm-up.  The stability
score comes from ``stability``, but its time is that of ``stability_dfs``,
the paper's full-subset baseline that visits all 2^|B| intent subsets.
The summary correlation is Pearson's coefficient over the (BECR,
stability) value pairs and is None when it is undefined (fewer than two
concepts, or an index constant across all concepts).
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Sequence

from .context import FormalContext
from .generators import IntentTooLarge
from .lattice import (
    DEFAULT_CONCEPT_BUDGET,
    FormalConcept,
    build_covers,
    enumerate_concepts,
)
from .relevance import BaseRule, becr, stability, stability_dfs

DEFAULT_TIMING_REPEATS = 5


class ZeroVariance(ValueError):
    """Correlation undefined: an input has no variance."""


class LengthMismatch(ValueError):
    """Paired inputs differ in length."""


@dataclass
class ScoreRow:
    """One concept's scores and times, with None and 0 in the fields of an
    index not computed.  The field order is the CSV column order
    (REPORT_COLUMNS).  Not frozen: a frozen row measured 5% slower on
    the benchmark's paper-793x10-timed pipeline."""
    concept_id: int
    extent_size: int
    intent_size: int
    alpha: Fraction | None = None
    beta: Fraction | None = None
    becr: Fraction | None = None
    stability: Fraction | None = None
    n_mingen: int | None = None
    n_base: int | None = None
    n_equiv: int | None = None
    t_becr_ns: int = 0
    t_stability_ns: int = 0


REPORT_COLUMNS = tuple(f.name for f in fields(ScoreRow))
# all but the two timing columns
_UNTIMED_COLUMNS = REPORT_COLUMNS[:-2]

# the columns written as scores by format_score; the others are integers
_SCORE_COLUMNS = frozenset(("alpha", "beta", "becr", "stability"))

# the choices of which indices score_concepts computes, and the
# REPORT_COLUMNS that `becr relevance --index` writes for each
INDEXES = {
    "becr": tuple(c for c in _UNTIMED_COLUMNS if c != "stability"),
    "stability": REPORT_COLUMNS[:3] + ("stability",),
    "both": _UNTIMED_COLUMNS,
}


@dataclass
class ComparisonReport:
    rows: list[ScoreRow]
    pearson_xi: float | None
    mean_time_becr_ns: float
    mean_time_stability_ns: float
    dataset_stats: tuple[int, int, int, int, float]  # |G| |M| |I| |C| density


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Raises LengthMismatch on unequal lengths, ValueError when either list
    holds NaN or an infinity, and ZeroVariance when the coefficient is
    undefined (a constant input, or fewer than two points).
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} xs vs {len(ys)} ys")
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        raise ValueError("pearson input is not finite: it holds NaN or inf")
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError as err:
        raise ZeroVariance(str(err)) from None
    return max(-1.0, min(1.0, r))


def dataset_stats(
    ctx: FormalContext, n_concepts: int
) -> tuple[int, int, int, int, float]:
    """(|G|, |M|, |I|, |C|, density); density reads 0.0 on a 0-area context."""
    density = (float(ctx.density())
               if ctx.n_objects and ctx.n_attributes else 0.0)
    return (ctx.n_objects, ctx.n_attributes, ctx.n_incidences, n_concepts,
            density)


def _best_ns(fn, repeats: int) -> int:
    """The minimum wall time in ns of ``repeats`` calls of fn (0 for none)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return min(times, default=0)


def _check_args(rule: BaseRule, timing_repeats: int) -> None:
    """Raise ValueError unless ``rule`` is a BaseRule member and
    ``timing_repeats`` is an ``int`` >= 0."""
    if type(rule) is not BaseRule:
        raise ValueError(f"rule {rule!r} is not a BaseRule member")
    if not isinstance(timing_repeats, int) or timing_repeats < 0:
        raise ValueError("timing_repeats must be an int >= 0")


def score_concepts(
    ctx: FormalContext,
    concepts: list[FormalConcept],
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
    index: str = "both",
    timing_repeats: int = 0,
) -> list[ScoreRow]:
    """One ScoreRow per concept id, in id order.

    ``concepts`` is the complete concept set of ``ctx`` as
    ``enumerate_concepts`` returns it, and ids are positions in it.
    ``index`` is one of INDEXES; the fields of an index not selected are
    None and never computed, so "becr" skips the stability intent guard,
    and only an index with BECR builds the covers that it reads.
    Each selected index is computed once per concept, then timed over
    ``timing_repeats`` calls (BECR itself, stability by ``stability_dfs``);
    with 0 (the default) its time is 0.
    A tripped guard re-raises IntentTooLarge naming the concept id.  A
    ``rule`` that is not a BaseRule member and ``timing_repeats`` other than
    an ``int`` >= 0 raise ValueError before any concept is scored, whichever
    index is chosen.
    """
    if index not in INDEXES:
        raise ValueError(f"index must be one of {tuple(INDEXES)}, "
                         f"got {index!r}")
    _check_args(rule, timing_repeats)
    lattice = build_covers(concepts) if index != "stability" else None
    rows = []
    for i, concept in enumerate(concepts):
        scores = {}
        try:
            if index != "stability":
                score = partial(becr, ctx, lattice, concept, rule)
                b = score()
                scores["t_becr_ns"] = _best_ns(score, timing_repeats)
                scores.update(alpha=b.alpha, beta=b.beta, becr=b.becr,
                              n_mingen=b.generator_count,
                              n_base=b.base_attributes.bit_count(),
                              n_equiv=b.equivalent_attributes.bit_count())
            if index != "becr":
                scores["stability"] = stability(ctx, concept).value
                scores["t_stability_ns"] = _best_ns(
                    partial(stability_dfs, ctx, concept), timing_repeats)
        except IntentTooLarge as err:
            raise IntentTooLarge(f"concept {i}: {err}") from None
        rows.append(ScoreRow(i, concept.extent.bit_count(),
                             concept.intent.bit_count(), **scores))
    return rows


def run_comparison(
    ctx: FormalContext,
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
    timing_repeats: int = DEFAULT_TIMING_REPEATS,
    concept_budget: int = DEFAULT_CONCEPT_BUDGET,
) -> ComparisonReport:
    """Score every concept with both indices and optionally time them.

    ``timing_repeats`` = 0 skips timing (times report as 0).  Every
    argument is checked before any work: a ``rule`` that is not a BaseRule
    member, or a knob that is not an ``int`` in range, raises ValueError.
    """
    _check_args(rule, timing_repeats)
    concepts = enumerate_concepts(ctx, budget=concept_budget)
    rows = score_concepts(ctx, concepts, rule, timing_repeats=timing_repeats)

    try:
        xi = pearson([float(r.becr) for r in rows],
                     [float(r.stability) for r in rows])
    except ZeroVariance:  # fewer than two concepts, or a constant index
        xi = None
    # every context has at least its top concept, so the means are defined
    return ComparisonReport(rows, xi,
                            statistics.fmean(r.t_becr_ns for r in rows),
                            statistics.fmean(r.t_stability_ns for r in rows),
                            dataset_stats(ctx, len(concepts)))


def format_score(value: Fraction) -> str:
    """A score as written to every CSV: six decimals.

    The one formatting rule for scores; ``emit_table`` calls it once per
    distinct value.  The true division is what ``float(value)`` computes,
    without the detour through ``numbers.Rational.__float__``.
    """
    return f"{value.numerator / value.denominator:.6f}"


def emit_table(rows: Sequence[ScoreRow], columns: Sequence[str]) -> str:
    """CSV of ``columns`` (from REPORT_COLUMNS), one line per row.

    Scores repeat across concepts (1000x16's 5,347 rows hold 62 distinct
    stability values), so each distinct value is formatted once per call
    and every later cell holding it reuses that text.
    """
    # keyed by (numerator, denominator): hashing a Fraction costs a
    # modular inverse
    texts = {}

    def score_text(value: Fraction) -> str:
        key = value.as_integer_ratio()
        text = texts.get(key)
        if text is None:
            text = texts[key] = format_score(value)
        return text

    # each column's formatter is chosen once, not once per field
    cells = [
        map(score_text if c in _SCORE_COLUMNS else str,
            map(attrgetter(c), rows))
        for c in columns
    ]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def emit_csv(report: ComparisonReport, include_timing: bool = True) -> str:
    """Report CSV; timing columns are dropped when ``include_timing`` is False."""
    return emit_table(report.rows,
                      REPORT_COLUMNS if include_timing else _UNTIMED_COLUMNS)


def emit_scatter(report: ComparisonReport) -> str:
    """Two-column becr,stability CSV with exactly one line per concept.

    ``emit_table``'s becr and stability columns without the header line.
    """
    return emit_table(report.rows, ("becr", "stability")).partition("\n")[2]
