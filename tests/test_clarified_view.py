"""The clarified view: one row class per distinct object row.

Enumeration, alpha and stability run on the class masks; these tests pin
the view itself and check every stage that reads it against the
object-space predicates and the brute-force oracles.
"""
import random

import pytest

from becr import (
    BaseRule,
    CoinTossSpec,
    FormalContext,
    alpha_term,
    brute_force_concepts,
    build_covers,
    coin_toss_context,
    enumerate_concepts,
    equivalent_attributes,
    is_base_attribute,
    iter_bits,
    minimal_generators,
    serialize_cxt,
    stability,
    stability_dfs,
    stability_oracle,
)
from becr.cli import EXIT_OK, main
from helpers import columns_oracle, next_closure_oracle


def make_context(n: int, m: int, rows) -> FormalContext:
    return FormalContext.from_rows(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)


def assert_stages_match_oracles(ctx: FormalContext) -> None:
    concepts = enumerate_concepts(ctx)
    assert concepts == next_closure_oracle(ctx)
    if ctx.n_objects <= 20:
        assert concepts == brute_force_concepts(ctx)
    lattice = build_covers(concepts)
    for concept in concepts:
        gens = minimal_generators(lattice, concept)
        for rule in BaseRule:
            _, base, equiv = alpha_term(ctx, concept, gens, rule)
            for m in iter_bits(concept.intent):
                assert (base >> m & 1) == is_base_attribute(
                    ctx, concept, m, rule)
            if not base:
                assert equiv == equivalent_attributes(ctx, concept)
        assert stability(ctx, concept) == stability_dfs(ctx, concept) == \
            stability_oracle(ctx, concept)


def test_class_rows_and_columns_of_a_hand_written_context():
    ctx = make_context(6, 3, [0b011, 0b110, 0b011, 0b000, 0b110, 0b101])
    # distinct rows in first-seen order: classes 0..3
    assert ctx.class_rows == (0b011, 0b110, 0b000, 0b101)
    # m0 is in classes 0 and 3, m1 in 0 and 1, m2 in 1 and 3
    assert ctx.class_cols == (0b1001, 0b0011, 0b1010)
    assert ctx.all_classes == 0b1111
    # the views are derived, so they play no part in equality or hash,
    # whether or not they have been read
    fresh = make_context(6, 3, ctx.rows)
    assert "class_cols" in vars(ctx) and "class_cols" not in vars(fresh)
    assert ctx.cols and "cols" not in vars(fresh)
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert_stages_match_oracles(ctx)


@pytest.mark.parametrize("n, m, rows, class_rows, class_cols", [
    pytest.param(4, 3, [0b101] * 4, (0b101,), (1, 0, 1),
                 id="every-row-equal"),
    pytest.param(3, 2, [0] * 3, (0,), (0, 0), id="every-row-empty"),
    pytest.param(0, 3, [], (), (0, 0, 0), id="no-objects"),
    pytest.param(3, 0, [0] * 3, (0,), (), id="no-attributes"),
    pytest.param(4, 3, [0b111, 0b010, 0b111, 0b111], (0b111, 0b010),
                 (0b01, 0b11, 0b01), id="repeated-full-row"),
])
def test_clarified_view_edge_cases(n, m, rows, class_rows, class_cols):
    ctx = make_context(n, m, rows)
    assert ctx.class_rows == class_rows
    assert ctx.class_cols == class_cols
    assert_stages_match_oracles(ctx)


def test_stages_match_oracles_on_repeated_rows_fuzz():
    rng = random.Random(1414)
    for trial in range(30):
        # every other context is small enough for the brute-force oracle
        n = rng.randint(1, 20) if trial % 2 else rng.randint(30, 400)
        m = rng.randint(2, 8)
        pool = [rng.getrandbits(m) for _ in range(rng.randint(1, 12))]
        ctx = make_context(n, m, [rng.choice(pool) for _ in range(n)])
        assert len(ctx.class_rows) <= len(pool)
        # every class repeats: cols is read off one digit string per class
        assert ctx.cols == columns_oracle(ctx.rows, m)
        assert_stages_match_oracles(ctx)


@pytest.mark.parametrize("k", [1, 3])
def test_repeating_objects_scales_only_extent_sizes(k, tmp_path, capsys):
    ctx = coin_toss_context(CoinTossSpec(60, 7, 0.4, 11))
    rows = [row for row in ctx.rows for _ in range(k)]
    random.Random(k).shuffle(rows)
    tables = []
    for name, c in (("base", ctx), ("copies", make_context(60 * k, 7, rows))):
        path = tmp_path / f"{name}.cxt"
        path.write_text(serialize_cxt(c), encoding="utf-8")
        assert main(["relevance", str(path), "--index", "both"]) == EXIT_OK
        tables.append(capsys.readouterr().out.splitlines())
    header, *lines = tables[0]
    expected = []
    for line in lines:
        concept_id, extent_size, *rest = line.split(",")
        expected.append(",".join([concept_id, str(int(extent_size) * k),
                                  *rest]))
    assert tables[1] == [header, *expected]
    assert len(expected) == len(enumerate_concepts(ctx))
