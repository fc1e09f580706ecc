"""Random coin-toss context generation."""
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
