"""Relevance scoring: the BECR breakdown and the stability index."""
import random
from fractions import Fraction

import pytest

from becr import (
    AttributeNotInIntent,
    BaseRule,
    CoinTossSpec,
    FormalConcept,
    FormalContext,
    IntentTooLarge,
    StabilityScore,
    alpha_term,
    becr,
    beta_term,
    brute_force_concepts,
    brute_force_minimal_generators,
    build_covers,
    coin_toss_context,
    enumerate_concepts,
    equivalent_attributes,
    is_base_attribute,
    iter_bits,
    minimal_generators,
    parse_fimi,
    serialize_cxt,
    stability,
    stability_dfs,
    stability_oracle,
)
from becr.cli import EXIT_OK, main
from helpers import random_context

F = Fraction

# per concept of the toy lattice, in enumeration order:
# (intent, alpha, beta, becr, stability, base names, equivalent names)
TOY_TABLE = [
    ("", F(0), F(0), F(0), F(1), "", ""),
    ("d", F(1), F(0), F(1, 2), F(1, 2), "d", ""),
    ("cg", F(1), F(1), F(1), F(3, 4), "", "cg"),
    ("cdg", F(1, 3), F(2, 3), F(1, 2), F(3, 8), "d", ""),
    ("bhi", F(1), F(1), F(1), F(7, 8), "", "bhi"),
    ("bdhi", F(1, 4), F(3, 4), F(1, 2), F(7, 16), "d", ""),
    ("bcghi", F(0), F(1), F(1, 2), F(21, 32), "", ""),
    ("bceghi", F(1, 6), F(1, 6), F(1, 6), F(1, 2), "e", ""),
    ("bcdghi", F(1, 6), F(1), F(7, 12), F(21, 64), "d", ""),
    ("ad", F(1), F(1, 2), F(3, 4), F(1, 2), "ad", ""),
    ("acdg", F(1, 2), F(1, 2), F(1, 2), F(3, 8), "ad", ""),
    ("abdhi", F(2, 5), F(3, 5), F(1, 2), F(7, 16), "ad", ""),
    ("abcdeghi", F(1, 8), F(1), F(9, 16), F(69, 128), "d", ""),
]


def test_toy_scores_exact(toy_ctx, toy_lattice):
    for concept, row in zip(toy_lattice.concepts, TOY_TABLE):
        intent, alpha, beta, value, sigma, base, equiv = row
        assert "".join(toy_ctx.attr_names(concept.intent)) == intent
        breakdown = becr(toy_ctx, toy_lattice, concept)
        assert breakdown.alpha == alpha
        assert breakdown.beta == beta
        assert breakdown.becr == value
        assert "".join(toy_ctx.attr_names(breakdown.base_attributes)) == base
        assert "".join(toy_ctx.attr_names(breakdown.equivalent_attributes)) \
            == equiv
        assert stability(toy_ctx, concept).value == sigma


def test_toy_literal_rule(toy_ctx, toy_lattice):
    cdg = toy_lattice.concepts[3]
    breakdown = becr(toy_ctx, toy_lattice, cdg, BaseRule.LITERAL_NON_STRICT)
    assert breakdown.alpha == F(1)
    assert toy_ctx.attr_names(breakdown.base_attributes) == ["c", "d", "g"]
    assert breakdown.beta == F(2, 3)
    assert breakdown.becr == F(5, 6)
    # a rule that is not a member, its value string included, must not fall
    # through to either rule: alpha_term and is_base_attribute would
    # disagree on which
    gens = minimal_generators(toy_lattice, cdg)
    d = toy_ctx.attributes.index("d")
    for rule in (BaseRule.WORKED_EXAMPLE.value, None):
        with pytest.raises(ValueError, match="not a BaseRule member"):
            alpha_term(toy_ctx, cdg, gens, rule)
        with pytest.raises(ValueError, match="not a BaseRule member"):
            is_base_attribute(toy_ctx, cdg, d, rule)
        with pytest.raises(ValueError, match="not a BaseRule member"):
            becr(toy_ctx, toy_lattice, cdg, rule)


def test_breakdown_is_composed_of_the_terms(toy_ctx, toy_lattice,
                                            davis_ctx, davis_lattice):
    for ctx, lattice in ((toy_ctx, toy_lattice), (davis_ctx, davis_lattice)):
        for concept in lattice.concepts:
            for rule in BaseRule:
                breakdown = becr(ctx, lattice, concept, rule)
                gens = minimal_generators(lattice, concept)
                alpha, base, equiv = alpha_term(ctx, concept, gens, rule)
                assert breakdown.alpha == alpha
                assert breakdown.base_attributes == base
                assert breakdown.equivalent_attributes == equiv
                assert breakdown.beta == beta_term(concept, gens)
                assert breakdown.becr == (alpha + breakdown.beta) / 2
                assert breakdown.generator_count == len(gens)


def test_witnesses_match_the_predicates_fuzz():
    rng = random.Random(404)
    for _ in range(120):
        ctx = random_context(rng)
        lattice = build_covers(enumerate_concepts(ctx))
        for concept in lattice.concepts:
            b = concept.intent
            size = b.bit_count()
            # the identity alpha_term starts from, on oracles alone: the
            # members every minimal generator holds are those whose removal
            # changes the extent
            shared = b
            for g in brute_force_minimal_generators(ctx, concept):
                shared &= g
            assert shared == sum(
                1 << m for m in iter_bits(b)
                if ctx.derive_extent(b & ~(1 << m)) != concept.extent)
            gens = minimal_generators(lattice, concept)
            for rule in BaseRule:
                alpha, base, equiv = alpha_term(ctx, concept, gens, rule)
                expected_base = sum(
                    1 << m for m in iter_bits(concept.intent)
                    if is_base_attribute(ctx, concept, m, rule))
                assert base == expected_base
                if base:
                    assert equiv == 0
                    assert alpha == F(base.bit_count(), size)
                else:
                    assert equiv == equivalent_attributes(ctx, concept)
                    assert alpha == (F(equiv.bit_count(), size) if equiv
                                     else F(0))


def test_base_and_equivalent_witnesses_exclusive(toy_ctx, toy_lattice):
    for concept in toy_lattice.concepts:
        breakdown = becr(toy_ctx, toy_lattice, concept)
        assert not (breakdown.base_attributes and
                    breakdown.equivalent_attributes)


def test_equivalent_attributes_pins(toy_ctx, toy_lattice):
    cg, d, top = (toy_lattice.concepts[i] for i in (2, 1, 0))
    assert toy_ctx.attr_names(equivalent_attributes(toy_ctx, cg)) == ["c", "g"]
    assert equivalent_attributes(toy_ctx, d) == 0  # singleton intent
    assert equivalent_attributes(toy_ctx, top) == 0


def test_equivalent_members_share_the_extent(davis_ctx, davis_lattice):
    for concept in davis_lattice.concepts:
        equiv = equivalent_attributes(davis_ctx, concept)
        assert equiv & ~concept.intent == 0
        for m in iter_bits(equiv):
            assert davis_ctx.cols[m] == concept.extent


# -- stability ----------------------------------------------------------------

def test_stability_matches_oracle_on_fixtures(toy_ctx, toy_concepts,
                                              davis_ctx, davis_concepts):
    for ctx, concepts in ((toy_ctx, toy_concepts), (davis_ctx, davis_concepts)):
        for concept in concepts:
            assert stability(ctx, concept) == stability_dfs(ctx, concept) == \
                stability_oracle(ctx, concept)


def test_stability_matches_the_full_subset_count_on_793x10():
    ctx = coin_toss_context(CoinTossSpec(793, 10, 0.41, 42))
    for concept in enumerate_concepts(ctx):
        assert stability(ctx, concept) == stability_dfs(ctx, concept)


def _edge_cases(ctx):
    """ctx with a copy of its first column, with a full column (the top
    concept then has extent G and a non-empty intent), and with an empty
    row."""
    names = list(ctx.attributes) + ["extra"]
    m = ctx.n_attributes
    yield FormalContext.from_rows(
        ctx.objects, names, [row | (row & 1) << m for row in ctx.rows])
    yield FormalContext.from_rows(
        ctx.objects, names, [row | 1 << m for row in ctx.rows])
    yield FormalContext.from_rows(
        list(ctx.objects) + ["empty"], ctx.attributes, list(ctx.rows) + [0])


def test_stability_matches_oracle_fuzz():
    # concepts by their family H: H = {B}, one proper generator, several
    # with a common member, and several with none, so that both the closed
    # form and the count from F' = (∩H)' run
    kinds = {"free": 0, "one": 0, "common": 0, "disjoint": 0}
    rng = random.Random(505)
    for _ in range(60):
        plain = random_context(rng, max_objects=10, max_attributes=8)
        for ctx in (plain, *_edge_cases(plain)):
            total = 0
            for concept in enumerate_concepts(ctx):
                fast = stability(ctx, concept)
                assert fast == stability_dfs(ctx, concept) == \
                    stability_oracle(ctx, concept)
                size = concept.intent.bit_count()
                assert fast.denominator == 1 << size
                assert 0 < fast.value <= 1
                total += fast.numerator
                family = brute_force_minimal_generators(ctx, concept)
                if len(family) == 1:
                    # the subsets that hold h
                    h = family[0]
                    assert fast.numerator == 1 << (size - h.bit_count())
                    kinds["free" if h == concept.intent else "one"] += 1
                else:
                    common = concept.intent
                    for h in family:
                        common &= h
                    kinds["common" if common else "disjoint"] += 1
            # every attribute subset e is counted once, at the concept
            # (e', e'')
            assert total == 1 << ctx.n_attributes
    assert all(kinds.values()), kinds


# (objects, attributes, density, context seed), concept count: a
# 28-attribute bottom concept, whose 2^28 subsets the full-subset count
# would visit one by one, and the coin-toss contexts of the benchmark's
# lattice-1000x16 and objects-20000x10 workloads at context seeds 42 and 7
_WHOLE_LATTICES = [
    ((14, 28, 0.6, 42), 755),
    ((1000, 16, 0.3, 42), 5347),
    ((1000, 16, 0.3, 7), 5964),
    ((20000, 10, 0.3, 42), 988),
    ((20000, 10, 0.3, 7), 976),
]


def test_stability_is_not_exponential_in_the_intent():
    for spec, count in _WHOLE_LATTICES:
        ctx = coin_toss_context(CoinTossSpec(*spec))
        concepts = enumerate_concepts(ctx)
        assert len(concepts) == count, spec
        assert concepts[-1].intent == ctx.all_attributes, spec
        # every attribute subset e is counted once, at the concept (e', e'')
        total = sum(stability(ctx, c).numerator for c in concepts)
        assert total == 1 << ctx.n_attributes, spec


def test_stability_value_property():
    assert StabilityScore(3, 8).value == F(3, 8)


def test_stability_intent_guards():
    ctx = FormalContext.from_rows(
        ["g"], [f"m{j}" for j in range(31)], [(1 << 31) - 1])
    concept = enumerate_concepts(ctx)[0]
    with pytest.raises(IntentTooLarge):
        stability(ctx, concept)
    with pytest.raises(IntentTooLarge):
        stability_oracle(ctx, concept)


def test_full_subset_count_keeps_its_guard():
    ctx = FormalContext.from_rows(
        ["g"], [f"m{j}" for j in range(31)], [(1 << 31) - 1])
    with pytest.raises(IntentTooLarge, match=r"2\^\|B\| subsets"):
        stability_dfs(ctx, enumerate_concepts(ctx)[0])


# -- intents outside the context ---------------------------------------------

# two attributes, so intent bit 2 lies outside; every scoring call checks
# the intent before it reads a column
_OUTSIDE = r"attribute mask has bits outside this context"


def _two_attribute_context():
    ctx = parse_fimi("1 2\n2\n")
    return ctx, build_covers(enumerate_concepts(ctx))


@pytest.mark.parametrize("intent", [0b100, -1])
def test_alpha_term_rejects_an_intent_outside_the_context(intent):
    ctx, _ = _two_attribute_context()
    with pytest.raises(ValueError, match=_OUTSIDE):
        alpha_term(ctx, FormalConcept(ctx.all_objects, intent), [intent])


@pytest.mark.parametrize("intent, m", [(0b100, 2), (-1, 0)])
def test_is_base_attribute_rejects_an_intent_outside_the_context(intent, m):
    # m is a member of the intent, so only the context check can raise
    ctx, _ = _two_attribute_context()
    with pytest.raises(ValueError, match=_OUTSIDE):
        is_base_attribute(ctx, FormalConcept(ctx.all_objects, intent), m)


@pytest.mark.parametrize("intent", [0b100, -1])
def test_equivalent_attributes_rejects_an_intent_outside_the_context(intent):
    ctx, _ = _two_attribute_context()
    with pytest.raises(ValueError, match=_OUTSIDE):
        equivalent_attributes(ctx, FormalConcept(ctx.all_objects, intent))


@pytest.mark.parametrize("intent", [0b100, -1])
def test_becr_rejects_an_intent_outside_the_context(intent):
    ctx, lattice = _two_attribute_context()
    with pytest.raises(ValueError, match=_OUTSIDE):
        becr(ctx, lattice, FormalConcept(ctx.all_objects, intent))


@pytest.mark.parametrize("intent", [0b100, -1])
def test_stability_rejects_an_intent_outside_the_context(intent):
    ctx, _ = _two_attribute_context()
    with pytest.raises(ValueError, match=_OUTSIDE):
        stability(ctx, FormalConcept(ctx.all_objects, intent))


@pytest.mark.parametrize("intent", [0b100, -1])
def test_stability_dfs_rejects_an_intent_outside_the_context(intent):
    ctx, _ = _two_attribute_context()
    with pytest.raises(ValueError, match=_OUTSIDE):
        stability_dfs(ctx, FormalConcept(ctx.all_objects, intent))


# -- term edge cases ----------------------------------------------------------

def test_beta_term_cases():
    concept = FormalConcept(extent=0b1, intent=0b111)
    sub = 0b011
    assert beta_term(concept, [concept.intent]) == F(0)
    assert beta_term(concept, [sub]) == F(1, 3)
    assert beta_term(concept, [0b011, 0b101]) == F(2, 3)
    assert beta_term(concept, [0b011, 0b101, 0b110]) == F(1)
    assert beta_term(concept, [0b001, 0b010, 0b100, 0b111]) == F(1)  # capped


def test_top_with_nonempty_intent_scores_beta_one():
    # both objects share m1, so the supremum's intent is {m1} and its only
    # generator is the empty set
    ctx = FormalContext.from_rows(["g1", "g2"], ["m1", "m2"], [0b11, 0b01])
    lattice = build_covers(enumerate_concepts(ctx))
    top = lattice.concepts[0]
    assert ctx.attr_names(top.intent) == ["m1"]
    breakdown = becr(ctx, lattice, top)
    assert breakdown.beta == F(1)
    assert breakdown.generator_count == 1


def test_membership_required():
    ctx = FormalContext.from_rows(["g"], ["m1", "m2"], [0b01])
    concept = enumerate_concepts(ctx)[0]
    assert concept.intent == 0b01
    outside = 1  # m2 is not in the intent {m1}
    with pytest.raises(AttributeNotInIntent):
        is_base_attribute(ctx, concept, outside)
    with pytest.raises(AttributeNotInIntent):
        is_base_attribute(ctx, concept, -1)


def test_scores_stay_in_range_fuzz():
    rng = random.Random(707)
    for _ in range(80):
        ctx = random_context(rng)
        lattice = build_covers(enumerate_concepts(ctx))
        for concept in lattice.concepts:
            breakdown = becr(ctx, lattice, concept)
            assert 0 <= breakdown.alpha <= 1
            assert 0 <= breakdown.beta <= 1
            assert 0 <= breakdown.becr <= 1


def test_repeated_calls_agree(toy_ctx, toy_lattice):
    concept = toy_lattice.concepts[3]
    assert becr(toy_ctx, toy_lattice, concept) == \
        becr(toy_ctx, toy_lattice, concept)


# -- the whole table against the oracles --------------------------------------

def _nominal_context(rng: random.Random, n: int = 14) -> FormalContext:
    """A nominally scaled table whose columns follow one latent class z.

    colour and size are bijections of z, so each colour value column
    coincides with a size value column; shape follows z with noise.
    """
    features = {
        "colour": lambda z: z,
        "size": lambda z: (z + 1) % 3,
        "shape": lambda z: z if rng.random() < 0.7 else rng.randrange(3),
    }
    names = [f"{f}={v}" for f in features for v in range(3)]
    rows = []
    for _ in range(n):
        z = rng.randrange(3)
        rows.append(sum(1 << names.index(f"{f}={value(z)}")
                        for f, value in features.items()))
    return FormalContext.from_rows([f"g{i}" for i in range(n)], names, rows)


def _oracle_table(ctx: FormalContext, rule: BaseRule) -> tuple[str, list]:
    """The `relevance --index both` table built from the oracles alone,
    with the (intent size, n_mingen, n_equiv) of each concept, top first."""
    rows = []
    for i, concept in enumerate(brute_force_concepts(ctx)):
        size = concept.intent.bit_count()
        base = sum(1 for m in iter_bits(concept.intent)
                   if is_base_attribute(ctx, concept, m, rule))
        equiv = 0 if base else equivalent_attributes(ctx, concept).bit_count()
        alpha = F(base or equiv, size) if base or equiv else F(0)
        generators = brute_force_minimal_generators(ctx, concept)
        beta = beta_term(concept, generators)
        rows.append((i, concept.extent.bit_count(), size, alpha, beta,
                     (alpha + beta) / 2,
                     stability_oracle(ctx, concept).value,
                     len(generators), base, equiv))
    shapes = [(r[2], r[7], r[9]) for r in rows]
    rows.sort(key=lambda r: r[5], reverse=True)  # stable: ties in id order
    lines = ["concept_id,extent_size,intent_size,alpha,beta,becr,stability,"
             "n_mingen,n_base,n_equiv"]
    for r in rows:
        lines.append(",".join([*map(str, r[:3]),
                               *(f"{float(v):.6f}" for v in r[3:7]),
                               *map(str, r[7:])]))
    return "\n".join(lines) + "\n", shapes


def test_relevance_table_matches_the_oracles(tmp_path, capsys):
    rng = random.Random(1616)
    contexts = [random_context(rng) for _ in range(30)]
    contexts.append(_nominal_context(rng))
    # a universal attribute: the top concept's intent is {m1}
    contexts.append(FormalContext.from_rows(
        ["g1", "g2", "g3"], ["m1", "m2", "m3"], [0b011, 0b101, 0b111]))
    # no attribute shared by all objects: the top intent is empty
    contexts.append(FormalContext.from_rows(
        ["g1", "g2", "g3"], ["m1", "m2"], [0b01, 0b10, 0b11]))
    path = tmp_path / "ctx.cxt"
    top_sizes, capped, equivalent = set(), False, False
    for ctx in contexts:
        path.write_text(serialize_cxt(ctx), encoding="utf-8")
        for rule in BaseRule:
            expected, shapes = _oracle_table(ctx, rule)
            assert main(["relevance", str(path), "--index", "both",
                         "--base-rule", rule.value]) == EXIT_OK
            assert capsys.readouterr().out == expected
            top_sizes.add(shapes[0][0])
            capped |= any(n > max(size, 1) for size, n, _ in shapes)
            equivalent |= any(n_equiv for _, _, n_equiv in shapes)
    # every case the scoring runs through its general path is reached: an
    # empty intent, a top concept with a non-empty intent, a capped beta
    # and equivalent attributes
    assert 0 in top_sizes and max(top_sizes) >= 1
    assert capped and equivalent
