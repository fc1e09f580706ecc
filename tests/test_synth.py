"""Random coin-toss context generation."""
import hashlib

import pytest

from becr import CoinTossSpec, coin_toss_context, enumerate_concepts


def test_same_seed_is_bit_identical():
    spec = CoinTossSpec(793, 10, 0.41, 42)
    assert coin_toss_context(spec) == coin_toss_context(spec)


def test_different_seeds_differ():
    a = coin_toss_context(CoinTossSpec(793, 10, 0.41, 42))
    b = coin_toss_context(CoinTossSpec(793, 10, 0.41, 43))
    assert a.rows != b.rows


def test_density_tracks_the_probability():
    ctx = coin_toss_context(CoinTossSpec(793, 10, 0.41, 42))
    assert abs(float(ctx.density()) - 0.41) < 0.02


def test_names_and_shape():
    ctx = coin_toss_context(CoinTossSpec(3, 2, 0.5, 0))
    assert ctx.objects == ("g1", "g2", "g3")
    assert ctx.attributes == ("m1", "m2")
    assert len(ctx.rows) == 3


def test_degenerate_probabilities():
    empty = coin_toss_context(CoinTossSpec(3, 3, 0.0, 7))
    assert empty.rows == (0, 0, 0)
    assert len(enumerate_concepts(empty)) == 2  # (G, {}) and ({}, M)
    full = coin_toss_context(CoinTossSpec(3, 3, 1.0, 7))
    assert full.rows == (7, 7, 7)
    assert len(enumerate_concepts(full)) == 1


def test_spec_validation():
    with pytest.raises(ValueError, match="n_objects"):
        CoinTossSpec(0, 3, 0.5, 0)
    with pytest.raises(ValueError, match="n_attributes"):
        CoinTossSpec(3, 0, 0.5, 0)
    with pytest.raises(ValueError, match="density"):
        CoinTossSpec(3, 3, -0.1, 0)
    with pytest.raises(ValueError, match="density"):
        CoinTossSpec(3, 3, 1.1, 0)
    # wrong types fail here, not later in coin_toss_context, and seed=None
    # would seed from OS entropy
    for args, name in (((2.5, 3, 0.5, 1), "n_objects"),
                       ((2, 3.0, 0.5, 1), "n_attributes"),
                       ((2, 3, "0.5", 1), "density"),
                       ((2, 3, None, 1), "density"),
                       ((2, 3, 0.5, None), "seed"),
                       ((2, 3, 0.5, 1.0), "seed")):
        with pytest.raises(ValueError, match=name):
            CoinTossSpec(*args)


# SHA-256 of each context's rows as comma-separated decimal masks: the
# draw order and every bit are fixed per (spec, seed)
ROW_DIGESTS = {
    (20000, 10, 0.3, 42):
        "81b8a226098a4e5d15ab25a37212c6d3045f5213df2f0e758e71aa2830cf3677",
    (1000, 16, 0.3, 42):
        "cea71bd0992a8b1c7326ed01e5c99ba2e4725c94f377765ae0ea0efbaff11d8e",
    (14, 32, 0.6, 42):
        "3d32dd24984633099f581d9dec41f3beeb9efdcec3b3e662980212ff826ff752",
}


@pytest.mark.parametrize("spec", list(ROW_DIGESTS), ids=str)
def test_rows_are_pinned(spec):
    rows = coin_toss_context(CoinTossSpec(*spec)).rows
    digest = hashlib.sha256(",".join(map(str, rows)).encode()).hexdigest()
    assert digest == ROW_DIGESTS[spec]
