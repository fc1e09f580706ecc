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

from .context import FormalContext


@dataclass(frozen=True)
class CoinTossSpec:
    n_objects: int
    n_attributes: int
    density: float  # Bernoulli probability of an incidence
    seed: int

    def __post_init__(self):
        if self.n_objects < 1:
            raise ValueError("n_objects must be at least 1")
        if self.n_attributes < 1:
            raise ValueError("n_attributes must be at least 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")


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
