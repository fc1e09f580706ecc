"""Concept enumeration, cover construction, and lattice exports."""
import csv
import io
import random
from collections import Counter

import pytest

from becr import (
    CoinTossSpec,
    ConceptBudgetExceeded,
    ContextTooLarge,
    FormalConcept,
    FormalContext,
    becr,
    brute_force_concepts,
    build_covers,
    coin_toss_context,
    concepts_csv,
    enumerate_concepts,
    lectic_key,
    parse_csv,
)
from helpers import next_closure_oracle, random_context, upper_covers_oracle

# extents and intents of the toy lattice in enumeration order
TOY_CONCEPTS = [
    ("12345", ""),
    ("1234", "d"),
    ("1235", "cg"),
    ("123", "cdg"),
    ("1345", "bhi"),
    ("134", "bdhi"),
    ("135", "bcghi"),
    ("15", "bceghi"),
    ("13", "bcdghi"),
    ("124", "ad"),
    ("12", "acdg"),
    ("14", "abdhi"),
    ("1", "abcdeghi"),
]


def names(ctx, concept):
    return (
        "".join(ctx.obj_names(concept.extent)),
        "".join(ctx.attr_names(concept.intent)),
    )


def test_toy_concepts_exact(toy_ctx, toy_concepts):
    assert [names(toy_ctx, c) for c in toy_concepts] == TOY_CONCEPTS


def test_concepts_are_closed_pairs(toy_ctx, toy_concepts):
    for c in toy_concepts:
        assert toy_ctx.derive_extent(c.intent) == c.extent
        assert toy_ctx.derive_intent(c.extent) == c.intent


def test_lectic_key_orders_sets():
    # width 3: {} < {2} < {1} < {1,2} < {0} < {0,2} < {0,1} < {0,1,2}
    order = [0b000, 0b100, 0b010, 0b110, 0b001, 0b101, 0b011, 0b111]
    keys = [lectic_key(s, 3) for s in order]
    assert keys == sorted(keys) == list(range(8))
    assert lectic_key(0, 0) == 0
    rng = random.Random(60)
    for _ in range(200):
        width = rng.randint(0, 70)
        mask = rng.getrandbits(width)
        members = [j for j in range(width) if mask >> j & 1]
        assert lectic_key(mask, width) == sum(
            1 << (width - 1 - j) for j in members)
    for intent, width in ((-1, 3), (-8, 3), (0b1000, 3), (1, 0)):
        with pytest.raises(ValueError, match="not a subset"):
            lectic_key(intent, width)


def test_enumeration_order_is_lectic(toy_ctx, toy_concepts, davis_ctx,
                                     davis_concepts):
    for ctx, concepts in ((toy_ctx, toy_concepts), (davis_ctx, davis_concepts)):
        keys = [lectic_key(c.intent, ctx.n_attributes) for c in concepts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumerate_matches_brute_force_fuzz():
    rng = random.Random(101)
    for _ in range(150):
        ctx = random_context(rng, max_objects=9, max_attributes=8)
        assert enumerate_concepts(ctx) == brute_force_concepts(ctx)


def assert_matches_next_closure(ctx):
    concepts = enumerate_concepts(ctx)
    assert concepts == next_closure_oracle(ctx)
    keys = [lectic_key(c.intent, ctx.n_attributes) for c in concepts]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    return concepts


def test_enumerate_matches_next_closure_past_the_brute_force_cap():
    # 21-60 objects, up to 40 attributes; sparse enough that the lattices
    # stay in the thousands of concepts
    rng = random.Random(105)
    for _ in range(40):
        n, m = rng.randint(21, 60), rng.randint(1, 40)
        p = rng.uniform(0.05, 0.5)
        ctx = FormalContext.from_rows(
            [f"g{i}" for i in range(n)],
            [f"m{j}" for j in range(m)],
            [sum(1 << j for j in range(m) if rng.random() < p)
             for _ in range(n)],
        )
        assert_matches_next_closure(ctx)


@pytest.mark.parametrize(
    "objects, attributes, rows, n_concepts, top, bottom", [
    # no objects: the one concept (∅, M)
    (0, 3, [], 1, 0b111, 0),
    # no attributes: the one concept (G, ∅)
    (3, 0, [0, 0, 0], 1, 0, 0b111),
    # every object has attribute 1, so the top intent is {1}
    (4, 3, [0b011, 0b110, 0b010, 0b111], 4, 0b010, 0b1000),
    # rows 0 and 2 are equal, and so are columns 0 and 2
    (4, 4, [0b1101, 0b1010, 0b1101, 0b0010], 6, 0, 0),
    # object 0 has every attribute, so the bottom extent is {0}
    (3, 3, [0b111, 0b001, 0b100], 4, 0, 0b001),
    ])
def test_enumerate_edge_cases(objects, attributes, rows, n_concepts, top,
                              bottom):
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(objects)],
        [f"m{j}" for j in range(attributes)],
        rows,
    )
    concepts = assert_matches_next_closure(ctx)
    assert len(concepts) == n_concepts
    assert concepts[0] == FormalConcept(ctx.all_objects, top)
    assert concepts[-1] == FormalConcept(bottom, ctx.all_attributes)


def test_enumerate_on_the_object_side_with_repeated_rows():
    # fewer objects than attributes, in fewer row classes than objects:
    # Close-by-One steps only to each class's first object.  The first
    # class's first and last objects are the first and last rows, so that
    # every other object lies between them; each shape also with an
    # all-zero row.  A row shuffle moves the extents' bits, not the ids
    rng = random.Random(213)
    for n, k, m, p in ((40, 16, 48, 0.5), (14, 8, 24, 0.5), (13, 6, 30, 0.3),
                       (12, 5, 13, 0.6), (9, 3, 10, 0.5), (3, 1, 4, 0.5)):
        for zero in (False, True):
            patterns = {0} if zero else set()
            while len(patterns) < k:  # no other all-zero row
                patterns.add(sum(1 << j for j in range(m) if rng.random() < p)
                             or 1)
            patterns = rng.sample(sorted(patterns), k)
            middle = patterns[1:] + [rng.choice(patterns)
                                     for _ in range(n - k - 1)]
            rng.shuffle(middle)
            rows = [patterns[0]] + middle + [patterns[0]]
            ctx = FormalContext.from_rows(
                [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)
            assert n < m and len(ctx.class_rows) == k
            concepts = assert_matches_next_closure(ctx)
            if n <= 20:
                assert concepts == brute_force_concepts(ctx)
            order = rng.sample(range(n), n)
            shuffled = FormalContext.from_rows(
                [ctx.objects[g] for g in order], ctx.attributes,
                [rows[g] for g in order])
            assert [(set(shuffled.obj_names(c.extent)), c.intent)
                    for c in enumerate_concepts(shuffled)] == \
                [(set(ctx.obj_names(c.extent)), c.intent) for c in concepts]


def test_extreme_concepts(toy_ctx, toy_concepts):
    top, bottom = toy_concepts[0], toy_concepts[-1]
    assert top.extent == toy_ctx.all_objects
    assert top.intent == toy_ctx.close_attrs(0)
    assert bottom.intent == toy_ctx.all_attributes


def test_concept_budget(toy_ctx):
    assert len(enumerate_concepts(toy_ctx, budget=13)) == 13
    with pytest.raises(ConceptBudgetExceeded):
        enumerate_concepts(toy_ctx, budget=12)
    with pytest.raises(ValueError):
        enumerate_concepts(toy_ctx, budget=0)
    # not an int: 2.5 is no concept count, and "3" does not compare
    for budget in (2.5, "3", None):
        with pytest.raises(ValueError, match="budget must be a positive int"):
            enumerate_concepts(toy_ctx, budget=budget)


def test_concept_budget_boundary():
    ctx = coin_toss_context(CoinTossSpec(40, 12, 0.4, seed=3))
    concepts = enumerate_concepts(ctx)
    n = len(concepts)
    assert n > 100
    assert enumerate_concepts(ctx, budget=n) == concepts
    message = f"more than {n - 1} concepts; raise the budget to continue"
    with pytest.raises(ConceptBudgetExceeded) as info:
        enumerate_concepts(ctx, budget=n - 1)
    assert str(info.value) == message


def test_brute_force_object_guard():
    ctx = FormalContext.from_rows(
        [f"g{i}" for i in range(21)], ["m"], [1] * 21)
    with pytest.raises(ContextTooLarge):
        brute_force_concepts(ctx)


# -- covers -------------------------------------------------------------------

def test_toy_covers(toy_ctx, toy_lattice):
    assert len(toy_lattice) == 13
    assert toy_lattice.upper_covers == upper_covers_oracle(toy_lattice.concepts)
    # spot checks: cdg sits under d and cg, the top covers nothing
    assert toy_lattice.upper_covers[3] == (1, 2)
    assert toy_lattice.upper_covers[0] == ()


def assert_covers_match_oracle(lattice):
    assert list(lattice.upper_covers) == upper_covers_oracle(lattice.concepts)


def test_covers_fuzz():
    rng = random.Random(202)
    for _ in range(60):
        ctx = random_context(rng)
        assert_covers_match_oracle(build_covers(enumerate_concepts(ctx)))


def test_covers_fuzz_multiword_extents():
    # more than 64 objects: every extent spans several machine words
    rng = random.Random(203)
    for _ in range(12):
        n, m = rng.randint(65, 260), rng.randint(1, 7)
        ctx = FormalContext.from_rows(
            [f"g{i}" for i in range(n)],
            [f"m{j}" for j in range(m)],
            [rng.getrandbits(m) for _ in range(n)],
        )
        assert_covers_match_oracle(build_covers(enumerate_concepts(ctx)))


def test_covers_fuzz_repeated_rows():
    # many objects over a few distinct rows, as in the object-heavy
    # benchmark contexts, where both stages run on the attributes:
    # enumeration over few row classes and covers over wide object masks.
    # Every other context ends with an all-zero row, an object in no
    # attribute extent and above the last bit of each; the rest give every
    # row attribute 0, so that the top intent is not empty
    rng = random.Random(205)
    for k in range(16):
        n, m = rng.randint(65, 300), rng.randint(1, 8)
        patterns = [rng.getrandbits(m) for _ in range(rng.randint(1, 12))]
        if k % 2 == 0:
            patterns = [p | 1 for p in patterns]
        rows = [rng.choice(patterns) for _ in range(n)]
        if k % 2:
            rows[-1] = 0
        ctx = FormalContext.from_rows(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)
        lattice = build_covers(enumerate_concepts(ctx))
        assert_covers_match_oracle(lattice)
        assert (lattice.concepts[0].intent != 0) == (k % 2 == 0)
        # in any order of the list: each concept's candidates are read off
        # its listed extent, and the first edge to a concept may come from
        # any concept of the list
        concepts = lattice.concepts[:]
        rng.shuffle(concepts)
        assert_covers_match_oracle(build_covers(concepts))
        # the benchmark's run seeds shuffle the rows: ids follow the
        # intents, so the covers must not move
        rng.shuffle(rows)
        shuffled = FormalContext.from_rows(ctx.objects, ctx.attributes, rows)
        assert build_covers(enumerate_concepts(shuffled)).upper_covers == \
            lattice.upper_covers


def cover_paths(ctx, concepts):
    """How many concepts take each attribute-side path of covers: every
    one-attribute removal B \\ {m} listed ("removals"); F, the members whose
    removal is listed, with F' = A ("generator"); or neither ("split")."""
    intents = {c.intent for c in concepts}
    paths = Counter()
    for c in concepts:
        f = sum(1 << m for m in range(ctx.n_attributes)
                if c.intent >> m & 1 and c.intent ^ 1 << m in intents)
        paths["removals" if f == c.intent
              else "generator" if ctx.derive_extent(f) == c.extent
              else "split"] += 1
    return paths


def test_covers_where_one_attribute_steps_are_intents():
    # the attribute side's three paths up: every removal B \ {m} listed;
    # the listed removals' members F with F' = A; and the split of F' \ A.
    # A tall coin toss that has every intent, so every removal; a taller
    # one and two sparse ones, which take each path; each in lectic order
    # and shuffled.  All of them have no fewer row classes than attributes
    rng = random.Random(210)
    dropped = 0
    for n, m, p in ((200, 6, 0.5), (150, 7, 0.5), (60, 10, 0.2),
                    (80, 12, 0.15)):
        for seed in range(2):
            ctx = coin_toss_context(CoinTossSpec(n, m, p, seed))
            assert len(ctx.class_rows) >= m
            concepts = enumerate_concepts(ctx)
            paths = cover_paths(ctx, concepts)
            if m == 6:
                assert paths == {"removals": 64}
            else:
                assert len(paths) == 3
            assert_covers_match_oracle(build_covers(concepts))
            assert_covers_match_oracle(
                build_covers(rng.sample(concepts, len(concepts))))
            # a removal that is no attribute concept, dropped from above a
            # concept whose removals are all listed: that concept splits
            # F' \ A, which names the gap
            attribute_intents = {ctx.close_attrs(1 << j) for j in range(m)}
            intents = {c.intent for c in concepts}
            removals = [c.intent for c in concepts
                        if all(c.intent ^ 1 << k in intents for k in range(m)
                               if c.intent >> k & 1)]
            j = next(j for j, c in enumerate(concepts)
                     if c.intent not in attribute_intents
                     for b in removals
                     if (c.intent ^ b).bit_count() == 1 and c.intent & b)
            with pytest.raises(ValueError, match="an upper neighbour missing "
                                                 "from the list"):
                build_covers(concepts[:j] + concepts[j + 1:])
            dropped += 1
    assert dropped == 8


def test_covers_reject_an_intent_that_is_not_closed():
    # a step B ∪ {m} that is no intent, listed with its extent A ∩ m' as
    # one more concept or in place of one.  No split pattern is such a
    # step, but a concept whose intent is the step and one more attribute
    # takes it for a listed removal: the equal extents on that edge, or a
    # split pattern equal to an intent, show that an intent is not closed
    rng = random.Random(211)
    stepping = 0
    for n, m, p, seed in ((40, 5, 0.5, 42), (30, 5, 0.5, 1), (24, 5, 0.6, 42)):
        ctx = coin_toss_context(CoinTossSpec(n, m, p, seed))
        concepts = enumerate_concepts(ctx)
        intents = {c.intent for c in concepts}
        for i, c in enumerate(concepts):
            for j in range(m):
                step = c.intent | 1 << j
                if step in intents:
                    continue
                stepping += all(c.intent | 1 << k in intents | {step}
                                for k in range(m))
                wrong = FormalConcept(c.extent & ctx.cols[j], step)
                k = rng.randrange(len(concepts))
                for listed in (concepts + [wrong],
                               concepts[:k] + [wrong] + concepts[k + 1:]):
                    with pytest.raises(ValueError):
                        build_covers(listed)
    assert stepping >= 20


def test_covers_check_an_extent_over_the_whole_face():
    # concept 10 of these rows is ({g1}, {m0, m2, m3}).  Listed with m4
    # added to its intent, it has no listed removal, and the split finds
    # its upper neighbours two attributes up.  g1 lacks m4, so its extent
    # fails the check over the whole face, though it can hold on the
    # face's lowest attribute alone
    ctx = FormalContext.from_rows([f"g{i}" for i in range(8)],
                                  [f"m{j}" for j in range(5)],
                                  [2, 13, 9, 24, 3, 5, 4, 20])
    concepts = enumerate_concepts(ctx)
    c = concepts[10]
    assert names(ctx, c) == ("g1", "m0m2m3")
    wrong = FormalConcept(c.extent, c.intent | 1 << 4)
    with pytest.raises(ValueError, match="concept 10 has an upper neighbour "
                                         "missing from the list"):
        build_covers(concepts[:10] + [wrong] + concepts[11:])


def test_covers_reject_a_negative_mask(toy_concepts):
    # a negative mask has no highest bit; it is named before any work
    for wrong, i in ((FormalConcept(1, -1), 0), (FormalConcept(-1, 0), 0),
                     (FormalConcept(toy_concepts[5].extent, -3), 5),
                     (FormalConcept(-toy_concepts[12].extent, 511), 12)):
        concepts = toy_concepts[:i] + [wrong] + toy_concepts[i + 1:]
        with pytest.raises(ValueError,
                           match=f"concept {i} has a negative intent"):
            build_covers(concepts)


def test_covers_of_brute_force_concepts():
    rng = random.Random(204)
    for _ in range(40):
        ctx = random_context(rng, max_objects=10, max_attributes=8)
        assert_covers_match_oracle(build_covers(brute_force_concepts(ctx)))


def test_both_sides_of_the_side_choice_fuzz():
    # both stages run on the attributes or, with fewer objects than
    # attributes, on the objects.  Shapes with fewer row classes than
    # attributes, as many and more (classes = |M| - 1, |M|, |M| + 1), with
    # all-zero rows, no objects and no attributes, on either side and with
    # and without repeated rows; covers also on shuffled lists
    rng = random.Random(207)
    shapes = Counter()
    sides = Counter()
    for _ in range(300):
        m = rng.randint(0, 6)
        k = rng.choice((m - 1, m, m + 1, rng.randint(0, 2 * m + 1)))
        k = min(max(k, 0), 2 ** m)
        patterns = rng.sample(range(2 ** m), k)
        n = rng.randint(k, 14) if k else 0
        rows = patterns + [rng.choice(patterns) for _ in range(n - k)]
        rng.shuffle(rows)
        ctx = FormalContext.from_rows(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)
        assert len(ctx.class_rows) == k
        shapes[(k > m) - (k < m), 0 in patterns, n == 0, m == 0] += 1
        sides[n < m, k < n] += 1
        concepts = enumerate_concepts(ctx)
        assert concepts == next_closure_oracle(ctx) == brute_force_concepts(ctx)
        lattice = build_covers(concepts)
        assert_covers_match_oracle(lattice)
        assert_covers_match_oracle(
            build_covers(rng.sample(concepts, len(concepts))))
        # generator_family relies on this: the faces B \ Bu to a concept's
        # upper covers are pairwise incomparable, so no face of two or more
        # attributes meets a one-attribute face
        for c, ups in zip(concepts, lattice.upper_covers):
            faces = [c.intent & ~concepts[u].intent for u in ups]
            forced = sum(f for f in faces if f.bit_count() == 1)
            assert not any(f & g == f for f in faces for g in faces if f != g)
            assert not any(f & forced for f in faces if f.bit_count() > 1)
    # fewer classes, as many, and more; with and without an all-zero row
    for classes in (-1, 0, 1):
        for zero in (False, True):
            assert shapes[classes, zero, False, False]
    assert shapes[-1, False, True, False]  # no objects
    assert shapes[1, True, False, True]  # no attributes
    # either side, with and without repeated rows
    assert len(sides) == 4


def test_covers_take_the_object_side_with_fewer_objects():
    # covers step up from the objects where there are fewer of them than
    # attributes, and from the attributes otherwise, as enumeration closes
    # object or attribute sets; a missing neighbour is named as an upper
    # one on both sides.  8 attributes over 7, 8 and 9 objects, each its own
    # row class or 7 and 6 classes repeated, with and without an all-zero
    # row.  That row is the last object: it lies in no attribute extent,
    # but the top's extent holds it, so 8 objects with one in no attribute
    # extent do not count as 7
    rng = random.Random(208)
    m = 8
    for n, k in ((7, 7), (8, 8), (9, 9), (8, 7), (9, 7), (12, 6)):
        for zero in (False, True):
            rows = rng.sample(range(1, 2 ** m), k - zero)
            rows += [rng.choice(rows) for _ in range(n - k)]
            rng.shuffle(rows)
            rows += [0] * zero
            ctx = FormalContext.from_rows(
                [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)
            assert len(ctx.class_rows) == k
            concepts = enumerate_concepts(ctx)
            assert_covers_match_oracle(build_covers(concepts))
            assert_covers_match_oracle(
                build_covers(rng.sample(concepts, len(concepts))))
            attribute_intents = {ctx.close_attrs(1 << j) for j in range(m)}
            i = next(i for i, c in enumerate(concepts[1:-1], start=1)
                     if c.intent not in attribute_intents)
            with pytest.raises(ValueError,
                               match="an upper neighbour missing"):
                build_covers(concepts[:i] + concepts[i + 1:])


@pytest.fixture(scope="module")
def events_ctx(davis_ctx):
    """davis read the other way round: its 14 events are the objects and
    its 18 women the attributes, so its 14 objects, in 13 row classes, are
    fewer than the attributes, as toy's 5 are fewer than its 8"""
    return FormalContext.from_rows(davis_ctx.attributes, davis_ctx.objects,
                                   davis_ctx.cols)


@pytest.fixture(scope="module")
def events_concepts(events_ctx):
    return enumerate_concepts(events_ctx)


def test_covers_need_the_complete_concept_set(toy_ctx, toy_concepts,
                                              events_ctx, events_concepts):
    # dropping a non-top concept that is no attribute concept mu(m) leaves
    # every attribute extent intact, so the gap shows as a missing neighbour.
    # Both contexts have fewer objects than attributes, so the covers are
    # found upwards, and the bottom concept is one of those dropped
    for ctx, lectic, n_dropped in ((toy_ctx, toy_concepts, 7),
                                   (events_ctx, events_concepts, 45)):
        assert ctx.n_objects < ctx.n_attributes
        attribute_intents = {ctx.close_attrs(1 << m)
                             for m in range(ctx.n_attributes)}
        assert lectic[-1].intent not in attribute_intents
        dropped = 0
        for i, c in enumerate(lectic[1:], start=1):
            if c.intent in attribute_intents:
                continue
            with pytest.raises(ValueError, match="missing from the list"):
                build_covers(lectic[:i] + lectic[i + 1:])
            dropped += 1
        assert dropped == n_dropped
        # an empty list has no concept without an upper cover; a list
        # without the top, and a concept listed twice (the top, or one below
        # it), each leave a second one
        for concepts in ([], lectic[1:], lectic + lectic[:1],
                         lectic + lectic[5:6]):
            with pytest.raises(ValueError, match="no upper cover"):
                build_covers(concepts)


def flipped_extents(ctx, concepts, i):
    """``concepts`` with one object bit of concept i's extent flipped, once
    for each object; the intent is kept."""
    c = concepts[i]
    for g in range(ctx.n_objects):
        wrong = FormalConcept(c.extent ^ (1 << g), c.intent)
        yield concepts[:i] + [wrong] + concepts[i + 1:]


def test_covers_reject_a_corrupted_extent(toy_ctx, toy_concepts, davis_ctx,
                                          davis_concepts, events_ctx,
                                          events_concepts):
    # the top's listed extent is checked against every object, and on the
    # attribute side each other concept's once, at the first edge up from
    # it, wherever the concept stands in the list.  The attribute extents
    # m' are read off the attribute concepts, so a corrupted one is checked
    # in part against itself: on davis, two such corruptions (object 5 of
    # concepts 51 and 55) pass silently.  Every other single-bit corruption
    # raises, in lectic order and in three shuffled ones.  Toy and davis's
    # events have fewer objects than attributes, so each listed extent
    # must be the AND of its intent's attribute extents: none of their
    # corruptions passes.
    # One object in no attribute extent has two concepts, and either
    # corruption gives both one extent
    rng = random.Random(206)
    davis_silent = {(51, 5), (55, 5)}
    single = FormalContext.from_rows(["g"], ["m"], [0])
    for ctx, lectic, silent in ((toy_ctx, toy_concepts, set()),
                                (davis_ctx, davis_concepts, davis_silent),
                                (events_ctx, events_concepts, set()),
                                (single, enumerate_concepts(single), set())):
        for k in range(4):
            concepts = rng.sample(lectic, len(lectic)) if k else lectic
            passed = set()
            for i, c in enumerate(concepts):
                for g, corrupted in enumerate(
                        flipped_extents(ctx, concepts, i)):
                    try:
                        build_covers(corrupted)
                    except ValueError:
                        continue
                    passed.add((lectic.index(c), g))
            assert passed == silent


def test_covers_let_through_what_lindigs_step_let_through():
    # 28 of this tall coin toss's 30 concepts have every one-attribute
    # removal listed, and the other 2 take F' = A; its single-bit extent
    # corruptions pass as they did when every concept took Lindig's step,
    # apart from the top's.  Objects 7 and 12 lie in no attribute extent,
    # so the attribute concepts' extents (ids 1, 2, 4, 8 and 16) are read
    # as m' whether or not they hold them; and a corrupted attribute extent
    # is checked in part against itself.  The top's extent is checked
    # against every object, so dropping 7 or 12 from it raises
    ctx = coin_toss_context(CoinTossSpec(40, 5, 0.5, 42))
    lectic = enumerate_concepts(ctx)
    assert cover_paths(ctx, lectic) == {"removals": 28, "generator": 2}
    silent = {(1, 6), (1, 7), (1, 12), (1, 24), (2, 7), (2, 12), (4, 7),
              (4, 12), (4, 34), (4, 39), (8, 7), (8, 12), (16, 7), (16, 12),
              (16, 19)}
    top = lectic[0]
    for g in (7, 12):
        wrong = FormalConcept(top.extent ^ 1 << g, top.intent)
        with pytest.raises(ValueError,
                           match="concept 0, the top, does not hold every"):
            build_covers([wrong] + lectic[1:])
    rng = random.Random(212)
    for k in range(2):
        concepts = rng.sample(lectic, len(lectic)) if k else lectic
        passed = set()
        for i, c in enumerate(concepts):
            for g, corrupted in enumerate(flipped_extents(ctx, concepts, i)):
                try:
                    build_covers(corrupted)
                except ValueError:
                    continue
                passed.add((lectic.index(c), g))
        assert passed == silent


def test_covers_take_a_top_without_its_last_object_in_no_attribute_extent(
        toy_ctx, toy_concepts):
    # the objects are read off the extents, so a top that lacks the last
    # object, where that object lies in no attribute extent, cannot be told
    # from the lattice of the context without that object: it passes.  Toy
    # with an all-zero sixth row (the object side) and the tall coin toss
    # above with an all-zero 41st row (the attribute side)
    tall = coin_toss_context(CoinTossSpec(40, 5, 0.5, 42))
    for base, lectic in ((toy_ctx, toy_concepts),
                         (tall, enumerate_concepts(tall))):
        n = base.n_objects
        ctx = FormalContext.from_rows(list(base.objects) + ["empty"],
                                      base.attributes, list(base.rows) + [0])
        top, *rest = enumerate_concepts(ctx)
        listed = [FormalConcept(top.extent ^ 1 << n, top.intent)] + rest
        assert listed == lectic
        assert build_covers(listed).upper_covers == \
            build_covers(lectic).upper_covers


def test_single_concept_lattice():
    ctx = FormalContext.from_rows(["g"], ["m"], [1])
    lattice = build_covers(enumerate_concepts(ctx))
    assert len(lattice) == 1
    assert lattice.upper_covers == [()]


def test_index_of(toy_lattice):
    for i, c in enumerate(toy_lattice.concepts):
        assert toy_lattice.index_of(c) == i
    foreign = FormalConcept(extent=0, intent=0b1)  # {a} is not closed
    with pytest.raises(ValueError):
        toy_lattice.index_of(foreign)
    # the extent counts too: intent {c} is closed in both contexts below,
    # with extent {2, 3} in c1 and {3} in c2, and c2's concept must not pass
    # for c1's
    c1 = FormalContext.from_rows(["1", "2", "3"], ["a", "b", "c"],
                                 [0b011, 0b110, 0b101])
    c2 = FormalContext.from_rows(["1", "2", "3"], ["a", "b", "c"],
                                 [0b011, 0b011, 0b100])
    lattice = build_covers(enumerate_concepts(c1))
    foreign = FormalConcept(extent=0b100, intent=0b100)
    assert foreign in enumerate_concepts(c2)
    assert FormalConcept(0b110, 0b100) in lattice.concepts
    with pytest.raises(ValueError, match="does not belong to this lattice"):
        lattice.index_of(foreign)
    with pytest.raises(ValueError, match="does not belong to this lattice"):
        becr(c1, lattice, foreign)


# -- export -------------------------------------------------------------------

def test_concepts_csv(toy_ctx, toy_concepts):
    text = concepts_csv(toy_ctx, toy_concepts)
    lines = text.splitlines()
    assert lines[0] == "id,extent,intent"
    assert lines[1] == "0,1;2;3;4;5,"
    assert lines[4] == "3,1;2;3,c;d;g"
    assert lines[13] == "12,1,a;b;c;d;e;g;h;i"
    assert len(lines) == 14
    assert "\r" not in text and text.endswith("\n")


def _split_names(field):
    """The names in a concepts_csv field: split on each ';' not escaped."""
    names, name, chars = [], "", iter(field)
    for ch in chars:
        if ch == ";":
            names.append(name)
            name = ""
        else:
            name += next(chars) if ch == "\\" else ch
    return names + [name] if field else []


def test_concepts_csv_escapes_separators_in_names():
    joined = parse_csv('o,m\n"a;b",1\nc,1\n')
    apart = FormalContext.from_rows(["a", "b", "c"], ["m"], [1, 1, 1])
    assert concepts_csv(joined, enumerate_concepts(joined)) == \
        "id,extent,intent\n0,a\\;b;c,m\n"
    assert concepts_csv(apart, enumerate_concepts(apart)) == \
        "id,extent,intent\n0,a;b;c,m\n"

    objects = ["a;b", "c\\", "\\;", ";", "d\\\\;e", "f"]
    ctx = FormalContext.from_rows(
        objects, ["x;y", "z\\", "w"], [0b011, 0b110, 0b101, 0b111, 0b010, 0])
    concepts = enumerate_concepts(ctx)
    rows = list(csv.reader(io.StringIO(concepts_csv(ctx, concepts))))
    assert len(rows) == len(concepts) + 1 > 4
    for (_, extent, intent), c in zip(rows[1:], concepts):
        assert _split_names(extent) == ctx.obj_names(c.extent)
        assert _split_names(intent) == ctx.attr_names(c.intent)
