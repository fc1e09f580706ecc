"""Minimal generators: pins, semantic checks, and the two oracles."""
import random

import pytest

from becr import (
    CoinTossSpec,
    ConceptLattice,
    FormalContext,
    IntentTooLarge,
    brute_force_minimal_generators,
    build_covers,
    coin_toss_context,
    enumerate_concepts,
    generator_family,
    iter_bits,
    minimal_generators,
)
from helpers import berge_minimal_generators, generator_key, random_context


def masks_to_names(ctx, masks):
    return [tuple(ctx.attr_names(m)) for m in masks]


def test_toy_generator_pins(toy_ctx, toy_lattice):
    concepts = toy_lattice.concepts
    assert masks_to_names(toy_ctx, minimal_generators(toy_lattice, concepts[3])) \
        == [("c", "d"), ("d", "g")]
    assert masks_to_names(toy_ctx, minimal_generators(toy_lattice, concepts[2])) \
        == [("c",), ("g",)]
    assert masks_to_names(toy_ctx, minimal_generators(toy_lattice, concepts[1])) \
        == [("d",)]


def test_supremum_generates_from_the_empty_set(toy_lattice):
    assert minimal_generators(toy_lattice, toy_lattice.concepts[0]) == [0]


def test_generators_close_to_the_intent(toy_ctx, toy_lattice):
    for concept in toy_lattice.concepts:
        for gen in minimal_generators(toy_lattice, concept):
            assert toy_ctx.close_attrs(gen) == concept.intent
            # dropping any member must lose the closure
            for m in iter_bits(gen):
                assert toy_ctx.close_attrs(gen & ~(1 << m)) != concept.intent


def test_generator_lists_are_canonical(toy_lattice, davis_lattice):
    for lattice in (toy_lattice, davis_lattice):
        for concept in lattice.concepts:
            gens = minimal_generators(lattice, concept)
            assert gens == sorted(gens, key=generator_key)
            assert len(set(gens)) == len(gens)
            # antichain: no generator contains another
            for a in gens:
                for b in gens:
                    assert a == b or (a & b) != a


def test_matches_powerset_oracle_fuzz():
    rng = random.Random(303)
    for _ in range(80):
        ctx = random_context(rng, max_objects=9, max_attributes=7)
        lattice = build_covers(enumerate_concepts(ctx))
        for concept in lattice.concepts:
            expected = sorted(
                brute_force_minimal_generators(ctx, concept), key=generator_key)
            assert minimal_generators(lattice, concept) == expected
            assert berge_minimal_generators(lattice, concept) == expected
            # the search order holds the same masks, each once
            assert sorted(generator_family(lattice, concept),
                          key=generator_key) == expected


def test_matches_powerset_oracle_on_large_families():
    # Dense contexts with 10-14 attributes: intents up to |M|, families of
    # dozens of generators, and Berge steps where a survivor blocks an
    # extension or meets the face in two or more attributes.  Each family is
    # also computed with every cover tuple shuffled.
    rng = random.Random(404)
    shuffle = random.Random(405)
    largest = 0
    for _ in range(10):
        n = rng.randint(6, 12)
        m = rng.randint(10, 14)
        p = rng.uniform(0.5, 0.85)
        rows = [sum(1 << j for j in range(m) if rng.random() < p)
                for _ in range(n)]
        ctx = FormalContext.from_rows(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)
        lattice = build_covers(enumerate_concepts(ctx))
        shuffled = ConceptLattice(lattice.concepts, [
            tuple(shuffle.sample(u, len(u))) for u in lattice.upper_covers
        ])
        for concept in lattice.concepts:
            gens = minimal_generators(lattice, concept)
            assert gens == brute_force_minimal_generators(ctx, concept)
            assert minimal_generators(shuffled, concept) == gens
            largest = max(largest, len(gens))
    assert largest >= 50


def test_face_order_changes_no_generator_family():
    # minimal_generators takes faces smallest first only to save work, and
    # cover order decides only ties: with every cover tuple shuffled, each
    # family still matches the powerset oracle
    rng = random.Random(505)
    for _ in range(60):
        ctx = random_context(rng, max_objects=9, max_attributes=8)
        concepts = enumerate_concepts(ctx)
        covers = [
            tuple(rng.sample(u, len(u)))
            for u in build_covers(concepts).upper_covers
        ]
        lattice = ConceptLattice(concepts, covers)
        for concept in concepts:
            expected = brute_force_minimal_generators(ctx, concept)
            assert minimal_generators(lattice, concept) == expected
            assert sorted(generator_family(lattice, concept),
                          key=generator_key) == expected


@pytest.mark.parametrize("spec,bottom_family", [
    (CoinTossSpec(14, 32, 0.6, 42), 4005),
    (CoinTossSpec(14, 28, 0.6, 42), 1841),
], ids=["wide-14x32", "ci-14x28"])
def test_matches_berge_oracle_past_the_powerset_guard(spec, bottom_family):
    # every concept, the bottom one included: its intent is all of M, past
    # the powerset oracle's 20 attributes
    ctx = coin_toss_context(spec)
    lattice = build_covers(enumerate_concepts(ctx))
    for concept in lattice.concepts:
        assert minimal_generators(lattice, concept) == \
            berge_minimal_generators(lattice, concept)
    bottom = lattice.concepts[-1]
    assert bottom.intent == ctx.all_attributes
    assert len(minimal_generators(lattice, bottom)) == bottom_family


@pytest.mark.parametrize("spec,total,largest", [
    (CoinTossSpec(1000, 16, 0.3, 42), 8839, 1425),
    (CoinTossSpec(14, 32, 0.6, 42), 14162, 4005),
], ids=["lattice-1000x16", "wide-14x32"])
def test_family_counts_on_benchmark_contexts(spec, total, largest):
    lattice = build_covers(enumerate_concepts(coin_toss_context(spec)))
    families = [minimal_generators(lattice, c) for c in lattice.concepts]
    sizes = [len(family) for family in families]
    assert (sum(sizes), max(sizes)) == (total, largest)
    for family in families:
        assert family == sorted(family, key=generator_key)


def test_powerset_oracle_intent_guard():
    ctx = FormalContext.from_rows(
        ["g"], [f"m{j}" for j in range(21)], [(1 << 21) - 1])
    concept = enumerate_concepts(ctx)[0]
    assert concept.intent.bit_count() == 21
    with pytest.raises(IntentTooLarge):
        brute_force_minimal_generators(ctx, concept)
