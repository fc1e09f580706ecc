"""Acceptance gate: one test and one summary line per criterion.

Each criterion pins behavior at its stated tolerance.  Rational results are
compared exactly; measured quantities (density, correlation, timing) use the
documented windows.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from becr import (
    BaseRule,
    CoinTossSpec,
    FormalContext,
    becr,
    brute_force_concepts,
    brute_force_minimal_generators,
    build_covers,
    coin_toss_context,
    emit_scatter,
    enumerate_concepts,
    equivalent_attributes,
    minimal_generators,
    run_comparison,
    stability,
    stability_oracle,
)
from conftest import record_criterion
from helpers import generator_key

F = Fraction


@contextmanager
def criterion(num, label):
    """Record the criterion's PASS/FAIL line, with any notes the body adds."""
    notes = []
    verdict = "FAIL"
    try:
        yield notes
        verdict = "PASS"
    finally:
        suffix = f" ({', '.join(notes)})" if notes else ""
        record_criterion(f"criterion {num} ({label}): {verdict}{suffix}")


def random_rows(rng, n, m):
    p = rng.uniform(0.1, 0.9)
    return [
        sum(1 << j for j in range(m) if rng.random() < p)
        for _ in range(n)
    ]


def make_context(rng, n, m):
    return FormalContext.from_rows(
        [f"g{i}" for i in range(n)],
        [f"m{j}" for j in range(m)],
        random_rows(rng, n, m),
    )


def test_criterion_1_worked_example(toy_ctx, toy_lattice):
    with criterion(1, "worked example breakdown"):
        start = time.perf_counter()
        concept = toy_lattice.concepts[3]
        assert toy_ctx.obj_names(concept.extent) == ["1", "2", "3"]
        assert toy_ctx.attr_names(concept.intent) == ["c", "d", "g"]
        breakdown = becr(toy_ctx, toy_lattice, concept)
        gens = minimal_generators(toy_lattice, concept)
        assert toy_ctx.attr_names(breakdown.base_attributes) == ["d"]
        assert breakdown.alpha == F(1, 3)
        assert [toy_ctx.attr_names(g) for g in gens] \
            == [["c", "d"], ["d", "g"]]
        assert breakdown.beta == F(2, 3)
        assert breakdown.becr == F(1, 2)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_equivalent_attributes(toy_ctx, toy_lattice):
    with criterion(2, "equivalent attributes"):
        concept = toy_lattice.concepts[2]
        assert toy_ctx.obj_names(concept.extent) == ["1", "2", "3", "5"]
        assert toy_ctx.attr_names(concept.intent) == ["c", "g"]
        equiv = equivalent_attributes(toy_ctx, concept)
        assert toy_ctx.attr_names(equiv) == ["c", "g"]


def test_criterion_3_minimal_generators(toy_ctx, toy_lattice):
    with criterion(3, "minimal generators vs oracle"):
        cdg = toy_lattice.concepts[3]
        assert [toy_ctx.attr_names(g)
                for g in minimal_generators(toy_lattice, cdg)] \
            == [["c", "d"], ["d", "g"]]
        rng = random.Random(1003)
        for _ in range(200):
            ctx = make_context(rng, 8, 8)
            lattice = build_covers(enumerate_concepts(ctx))
            for concept in lattice.concepts:
                expected = sorted(
                    brute_force_minimal_generators(ctx, concept),
                    key=generator_key)
                assert minimal_generators(lattice, concept) == expected


def test_criterion_4_stability_oracle(toy_ctx, toy_concepts):
    with criterion(4, "stability vs oracle"):
        for concept in toy_concepts:
            assert stability(toy_ctx, concept) \
                == stability_oracle(toy_ctx, concept)
        cdg = toy_concepts[3]
        assert stability(toy_ctx, cdg).value == F(3, 8)
        rng = random.Random(1004)
        for _ in range(200):
            ctx = make_context(rng, rng.randint(1, 12), rng.randint(1, 8))
            for concept in enumerate_concepts(ctx):
                assert stability(ctx, concept) == stability_oracle(ctx, concept)


def test_criterion_5_lattice_enumeration(davis_ctx, davis_concepts):
    with criterion(5, "lattice enumeration and davis stats"):
        rng = random.Random(1005)
        for _ in range(500):
            ctx = make_context(rng, rng.randint(1, 10), rng.randint(1, 8))
            assert set(enumerate_concepts(ctx)) == set(brute_force_concepts(ctx))
        assert davis_ctx.n_objects == 18
        assert davis_ctx.n_attributes == 14
        assert davis_ctx.n_incidences == 89
        assert abs(float(davis_ctx.density()) - 0.353) <= 0.005
        assert len(davis_concepts) == 63


def test_criterion_6_correlation(davis_ctx):
    with criterion(6, "becr-stability correlation"):
        report = run_comparison(davis_ctx, timing_repeats=0)
        xi = report.pearson_xi
        assert xi is not None and math.isfinite(xi)
        assert 0.0 < xi < 0.35
        assert len(emit_scatter(report).splitlines()) == len(report.rows) == 63


def test_criterion_7_timing_order(davis_ctx):
    with criterion(7, "mean scoring time ordering") as notes:
        start = time.perf_counter()
        coin = coin_toss_context(CoinTossSpec(793, 10, 0.41, 42))
        for name, ctx in (("davis", davis_ctx), ("793x10", coin)):
            report = run_comparison(ctx, timing_repeats=5)
            ratio = report.mean_time_becr_ns / report.mean_time_stability_ns
            notes.append(f"{name} {ratio:.2f}")  # mean BECR / stability time
            # ordering only; absolute speedups are hardware-dependent
            assert report.mean_time_becr_ns < report.mean_time_stability_ns
        assert time.perf_counter() - start < 60.0


def test_criterion_8_score_ranges():
    with criterion(8, "score ranges and witnesses"):
        rng = random.Random(1008)
        for _ in range(1000):
            ctx = make_context(rng, rng.randint(1, 7), rng.randint(1, 7))
            lattice = build_covers(enumerate_concepts(ctx))
            for concept in lattice.concepts:
                rule = rng.choice(list(BaseRule))
                breakdown = becr(ctx, lattice, concept, rule)
                sigma = stability(ctx, concept).value
                assert 0 <= breakdown.alpha <= 1
                assert 0 <= breakdown.beta <= 1
                assert 0 <= breakdown.becr <= 1
                assert 0 < sigma <= 1
                assert not (breakdown.base_attributes
                            and breakdown.equivalent_attributes)
                gens = minimal_generators(lattice, concept)
                beta_zero = concept.intent == 0 or gens == [concept.intent]
                assert (breakdown.beta == 0) == beta_zero


def test_criterion_9_generator_reproducibility():
    with criterion(9, "generator reproducibility"):
        spec = CoinTossSpec(793, 10, 0.41, 42)
        first = coin_toss_context(spec)
        assert first == coin_toss_context(spec)
        assert abs(float(first.density()) - 0.41) < 0.02
