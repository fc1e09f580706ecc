"""Synthetic random contexts.

Cells are independent Bernoulli draws from the Mersenne Twister behind
``random.Random``, whose ``random()`` stream is documented to be identical
for a given seed across Python versions and platforms.  Cells are drawn in
row-major order (objects outer, attributes inner), so a (spec, seed) pair
identifies one context bit for bit.
"""
from __future__ import annotations

import random
from numbers import Real

from .context import FormalContext, FrozenRecord


class CoinTossSpec(FrozenRecord):
    """An immutable coin-toss table shape: ``density`` is the Bernoulli
    probability of an incidence."""

    __slots__ = __match_args__ = ("n_objects", "n_attributes", "density",
                                  "seed")

    def __init__(self, n_objects: int, n_attributes: int, density: float,
                 seed: int):
        # a float count would fail later in range(), and a str density in
        # the comparison; seed=None seeds from OS entropy, so the context
        # would no longer follow from (spec, seed)
        for name, value in (("n_objects", n_objects),
                            ("n_attributes", n_attributes)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int of at least 1")
        if not (isinstance(density, Real) and 0 <= density <= 1):
            raise ValueError("density must be a real number in [0, 1]")
        if not isinstance(seed, int):
            raise ValueError("seed must be an int")
        for name, value in zip(self.__match_args__,
                               (n_objects, n_attributes, density, seed)):
            object.__setattr__(self, name, value)


def coin_toss_context(spec: CoinTossSpec) -> FormalContext:
    """Random context with i.i.d. cells; bit-reproducible per (spec, seed).

    Objects are named g1..gN, attributes m1..mM.
    """
    draw = random.Random(spec.seed).random
    p = spec.density
    bits = [1 << m for m in range(spec.n_attributes)]
    rows = []
    for _ in range(spec.n_objects):
        mask = 0
        for bit in bits:
            if draw() < p:
                mask |= bit
        rows.append(mask)
    return FormalContext.from_rows(
        [f"g{i + 1}" for i in range(spec.n_objects)],
        [f"m{j + 1}" for j in range(spec.n_attributes)],
        rows,
    )
