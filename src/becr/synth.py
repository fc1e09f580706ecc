"""Synthetic random contexts.

Cells are independent Bernoulli draws from the Mersenne Twister behind
``random.Random``, whose ``random()`` stream is documented to be identical
for a given seed across Python versions and platforms.  Cells are drawn in
row-major order (objects outer, attributes inner), so a (spec, seed) pair
identifies one context bit for bit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from numbers import Real

from .context import FormalContext


@dataclass(frozen=True)
class CoinTossSpec:
    n_objects: int
    n_attributes: int
    density: float  # Bernoulli probability of an incidence
    seed: int

    def __post_init__(self):
        # a float count would fail later in range(), and a str density in
        # the comparison; seed=None seeds from OS entropy, so the context
        # would no longer follow from (spec, seed)
        for name in ("n_objects", "n_attributes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int of at least 1")
        if not (isinstance(self.density, Real) and 0 <= self.density <= 1):
            raise ValueError("density must be a real number in [0, 1]")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an int")


def coin_toss_context(spec: CoinTossSpec) -> FormalContext:
    """Random context with i.i.d. cells; bit-reproducible per (spec, seed).

    Objects are named g1..gN, attributes m1..mM.
    """
    rng = random.Random(spec.seed)
    p = spec.density
    rows = []
    for _ in range(spec.n_objects):
        mask = 0
        for m in range(spec.n_attributes):
            if rng.random() < p:
                mask |= 1 << m
        rows.append(mask)
    return FormalContext.from_rows(
        [f"g{i + 1}" for i in range(spec.n_objects)],
        [f"m{j + 1}" for j in range(spec.n_attributes)],
        rows,
    )
