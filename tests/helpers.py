"""Small utilities shared by the test modules."""
import random

from becr import FormalConcept, FormalContext, MalformedRow


def random_context(rng: random.Random, max_objects: int = 8,
                   max_attributes: int = 8) -> FormalContext:
    """Draw a context with uniform shape and a per-context density."""
    n = rng.randint(1, max_objects)
    m = rng.randint(1, max_attributes)
    p = rng.uniform(0.1, 0.9)
    rows = [
        sum(1 << j for j in range(m) if rng.random() < p)
        for _ in range(n)
    ]
    return FormalContext.from_rows(
        [f"g{i + 1}" for i in range(n)],
        [f"m{j + 1}" for j in range(m)],
        rows,
    )


def next_closure_oracle(ctx: FormalContext) -> list[FormalConcept]:
    """All concepts in ascending lectic order by Ganter's next-closure.

    Each step closes (B below i) + i for the largest i that gives a closure
    adding nothing below i, from scratch with ``close_attrs``.
    """
    intent = ctx.close_attrs(0)
    concepts = [FormalConcept(ctx.derive_extent(intent), intent)]
    full = ctx.all_attributes
    while intent != full:
        for i in reversed(range(ctx.n_attributes)):
            bit = 1 << i
            if intent & bit:
                continue
            below = bit - 1  # attributes with index < i
            candidate = ctx.close_attrs((intent & below) | bit)
            if (candidate & below) == (intent & below):
                intent = candidate
                break
        concepts.append(FormalConcept(ctx.derive_extent(intent), intent))
    return concepts


def generator_key(mask: int):
    """(size, members ascending), the documented generator ordering."""
    bits = []
    while mask:
        low = mask & -mask
        mask ^= low
        bits.append(low)
    return (len(bits), bits)


def columns_oracle(rows, m: int) -> tuple[int, ...]:
    """Object mask of each of m attributes, one incidence at a time."""
    cols = [0] * m
    for g, row in enumerate(rows):
        for j in range(m):
            if row >> j & 1:
                cols[j] |= 1 << g
    return tuple(cols)


def fimi_oracle(text: str):
    """(item ids ascending, row masks) of FIMI text, one token at a time.

    Raises MalformedRow for the first bad token in reading order.
    """
    transactions = []
    for i, line in enumerate(text.splitlines()):
        items = set()
        for token in line.split():
            if not (token.isascii() and token.isdigit()):
                raise MalformedRow(f"line {i + 1}: non-integer item {token!r}")
            try:
                items.add(int(token))
            except ValueError:  # over the interpreter's int digit limit
                raise MalformedRow(f"line {i + 1}: item too long") from None
        transactions.append(items)
    ids = sorted({item for t in transactions for item in t})
    index = {item: j for j, item in enumerate(ids)}
    return ids, [sum(1 << index[item] for item in t) for t in transactions]


def cxt_rows_oracle(ctx: FormalContext) -> list[str]:
    """The cross-table lines of ctx in Burmeister format, one cell at a time."""
    m = ctx.n_attributes
    return [
        "".join("X" if row >> j & 1 else "." for j in range(m))
        for row in ctx.rows
    ]
