"""Comparison harness: correlation, aggregation, timing, CSV emission."""
import math
import random
import statistics
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from becr import (
    ComparisonReport,
    ConceptBudgetExceeded,
    FormalContext,
    IntentTooLarge,
    LengthMismatch,
    ZeroVariance,
    becr,
    build_covers,
    emit_csv,
    emit_scatter,
    enumerate_concepts,
    pearson,
    run_comparison,
    stability,
    stability_dfs,
)
from becr import bench
from becr.bench import REPORT_COLUMNS, dataset_stats, score_concepts


# -- pearson ------------------------------------------------------------------

def test_pearson_perfect_correlation():
    xs = [0.1, 0.5, 0.9]
    assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, list(reversed(xs))) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_undefined_inputs():
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [0.1, 0.5, 0.9])
    with pytest.raises(ZeroVariance):
        pearson([1.0], [2.0])
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pearson_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="not finite"):
        pearson([1.0, bad, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="not finite"):
        pearson([1.0, 2.0, 3.0], [1.0, bad, 2.0])


def test_pearson_affine_invariance_and_symmetry():
    rng = random.Random(808)
    xs = [rng.random() for _ in range(40)]
    ys = [rng.random() for _ in range(40)]
    r = pearson(xs, ys)
    assert -1.0 <= r <= 1.0
    assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)
    scaled = [3.0 * x + 11.0 for x in xs]
    assert pearson(scaled, ys) == pytest.approx(r, abs=1e-12)


# -- run_comparison -----------------------------------------------------------

def test_toy_report_rows_match_direct_scoring(toy_ctx, toy_lattice):
    report = run_comparison(toy_ctx, timing_repeats=0)
    assert [r.concept_id for r in report.rows] == list(range(13))
    for row, concept in zip(report.rows, toy_lattice.concepts):
        breakdown = becr(toy_ctx, toy_lattice, concept)
        assert row.extent_size == concept.extent.bit_count()
        assert row.intent_size == concept.intent.bit_count()
        assert (row.alpha, row.beta, row.becr) == \
            (breakdown.alpha, breakdown.beta, breakdown.becr)
        assert row.stability == stability(toy_ctx, concept).value
        assert row.n_mingen == breakdown.generator_count
        assert row.n_base == breakdown.base_attributes.bit_count()
        assert row.n_equiv == breakdown.equivalent_attributes.bit_count()
        assert row.becr == (row.alpha + row.beta) / 2
        assert row.t_becr_ns == row.t_stability_ns == 0
    assert report.mean_time_becr_ns == 0.0
    assert report.mean_time_stability_ns == 0.0
    assert report.dataset_stats == (5, 8, 29, 13, 0.725)
    assert report.pearson_xi is not None


def test_dataset_stats_on_zero_area_contexts():
    assert dataset_stats(FormalContext.from_rows([], ["m"], []), 1) \
        == (0, 1, 0, 1, 0.0)
    assert dataset_stats(FormalContext.from_rows(["g"], [], [0]), 1) \
        == (1, 0, 0, 1, 0.0)


def test_report_is_deterministic_without_timing(toy_ctx):
    a = run_comparison(toy_ctx, timing_repeats=0)
    b = run_comparison(toy_ctx, timing_repeats=0)
    assert a.rows == b.rows and a.pearson_xi == b.pearson_xi


def test_timing_pass_populates_times(toy_ctx):
    report = run_comparison(toy_ctx, timing_repeats=1)
    assert all(r.t_becr_ns > 0 for r in report.rows)
    assert all(r.t_stability_ns > 0 for r in report.rows)
    assert report.mean_time_becr_ns == \
        statistics.fmean([r.t_becr_ns for r in report.rows])
    assert report.mean_time_stability_ns == \
        statistics.fmean([r.t_stability_ns for r in report.rows])


def test_xi_undefined_below_two_concepts():
    ctx = FormalContext.from_rows(["g"], ["m"], [1])
    report = run_comparison(ctx, timing_repeats=0)
    assert len(report.rows) == 1
    assert report.pearson_xi is None


def test_run_comparison_argument_validation(toy_ctx, toy_concepts,
                                            monkeypatch):
    with pytest.raises(ValueError):
        run_comparison(toy_ctx, timing_repeats=-1)

    # a knob that is not an int fails as a ValueError before any work
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the knobs were checked")
    monkeypatch.setattr(bench, "build_covers", no_work)
    monkeypatch.setattr(bench, "becr", no_work)
    monkeypatch.setattr(bench, "stability", no_work)
    for repeats in (1.5, "3", None):
        with pytest.raises(ValueError, match="timing_repeats must be an int"):
            run_comparison(toy_ctx, timing_repeats=repeats)
        with pytest.raises(ValueError, match="timing_repeats must be an int"):
            score_concepts(toy_ctx, toy_concepts, timing_repeats=repeats)
    for budget in (2.5, "3"):
        with pytest.raises(ValueError, match="budget must be a positive int"):
            run_comparison(toy_ctx, timing_repeats=0, concept_budget=budget)
    # so does a rule that is not a BaseRule member, its value string
    # included, even where no BECR score would be computed
    with pytest.raises(ValueError, match="not a BaseRule member"):
        run_comparison(toy_ctx, rule="literal", concept_budget=1)
    with pytest.raises(ValueError, match="not a BaseRule member"):
        score_concepts(toy_ctx, toy_concepts, rule="literal", index="stability")


def test_concept_budget_is_forwarded(toy_ctx):
    with pytest.raises(ConceptBudgetExceeded):
        run_comparison(toy_ctx, timing_repeats=0, concept_budget=5)


def test_score_concepts_computes_only_the_selected_index(
        toy_ctx, toy_concepts, monkeypatch):
    both = score_concepts(toy_ctx, toy_concepts)
    assert [r.concept_id for r in both] == list(range(13))
    assert all(getattr(r, c) is not None for r in both for c in REPORT_COLUMNS)
    assert all(r.t_becr_ns == r.t_stability_ns == 0 for r in both)
    no_becr = dict.fromkeys(
        ("alpha", "beta", "becr", "n_mingen", "n_base", "n_equiv"))

    def not_called(*args):
        raise AssertionError("computed an index that was not selected")

    with monkeypatch.context() as patch:
        patch.setattr(bench, "stability", not_called)
        assert score_concepts(toy_ctx, toy_concepts, index="becr") == \
            [replace(r, stability=None) for r in both]
    with monkeypatch.context() as patch:
        # stability reads no covers, so none are built for it
        patch.setattr(bench, "build_covers", not_called)
        patch.setattr(bench, "becr", not_called)
        assert score_concepts(toy_ctx, toy_concepts, index="stability") == \
            [replace(r, **no_becr) for r in both]
    with pytest.raises(ValueError):
        score_concepts(toy_ctx, toy_concepts, index="BECR")


def test_each_index_is_computed_once_per_concept_and_timed_run(
        toy_ctx, toy_concepts, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(bench, "becr", counting("becr", becr))
    monkeypatch.setattr(bench, "stability", counting("stability", stability))
    monkeypatch.setattr(bench, "stability_dfs",
                        counting("stability_dfs", stability_dfs))
    score_concepts(toy_ctx, toy_concepts)
    assert calls == {"becr": 13, "stability": 13}
    assert calls["stability_dfs"] == 0
    calls.clear()
    # becr: the scoring call is the warm-up, then two timed runs; stability
    # scores once, and the timed runs are of the full-subset baseline
    run_comparison(toy_ctx, timing_repeats=2)
    assert calls == {"becr": 3 * 13, "stability": 13, "stability_dfs": 2 * 13}
    calls.clear()
    rows = score_concepts(toy_ctx, toy_concepts, index="becr", timing_repeats=1)
    assert calls == {"becr": 2 * 13}
    assert all(r.t_becr_ns > 0 and r.t_stability_ns == 0 for r in rows)


def test_oversized_intent_is_annotated_with_the_concept():
    ctx = FormalContext.from_rows(
        ["g"], [f"m{j}" for j in range(31)], [(1 << 31) - 1])
    with pytest.raises(IntentTooLarge, match="^concept 0:"):
        run_comparison(ctx, timing_repeats=0)


# -- emission -------------------------------------------------------------

def test_emit_csv_toy(toy_ctx):
    report = run_comparison(toy_ctx, timing_repeats=0)
    text = emit_csv(report)
    lines = text.splitlines()
    assert lines[0] == (
        "concept_id,extent_size,intent_size,alpha,beta,becr,stability,"
        "n_mingen,n_base,n_equiv,t_becr_ns,t_stability_ns"
    )
    assert lines[1] == "0,5,0,0.000000,0.000000,0.000000,1.000000,1,0,0,0,0"
    assert len(lines) == 14
    assert text.endswith("\n")

    slim = emit_csv(report, include_timing=False).splitlines()
    assert slim[0] == ",".join(REPORT_COLUMNS[:-2])
    assert slim[1] == "0,5,0,0.000000,0.000000,0.000000,1.000000,1,0,0"


def test_emit_csv_header_only_for_empty_report():
    report = ComparisonReport([], None, 0.0, 0.0, (0, 0, 0, 0, 0.0))
    assert emit_csv(report) == ",".join(REPORT_COLUMNS) + "\n"


def test_emit_scatter(toy_ctx):
    report = run_comparison(toy_ctx, timing_repeats=0)
    lines = emit_scatter(report).splitlines()
    assert len(lines) == 13
    assert lines[0] == "0.000000,1.000000"
    for line, row in zip(lines, report.rows):
        assert line == f"{float(row.becr):.6f},{float(row.stability):.6f}"
