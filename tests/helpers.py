"""Small utilities shared by the test modules."""
import random

from becr import (
    ConceptLattice,
    DimensionMismatch,
    FormalConcept,
    FormalContext,
    IllegalCell,
    MalformedRow,
    StabilityScore,
    iter_bits,
)

# 2^20 face sets at most; the faces of a concept are as many as its upper
# covers, which can be far fewer than its attributes
MAX_FACES = 20


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


def upper_covers_oracle(concepts):
    """Transitive reduction of extent containment, computed the slow way."""
    n = len(concepts)
    above = [
        {j for j in range(n)
         if concepts[j].extent != concepts[i].extent
         and concepts[i].extent & ~concepts[j].extent == 0}
        for i in range(n)
    ]
    return [
        tuple(sorted(
            j for j in above[i]
            if not any(j in above[k] for k in above[i] if k != j)
        ))
        for i in range(n)
    ]


def stability_by_faces(concepts, upper_covers, i) -> StabilityScore:
    """Oracle: concept i's stability by inclusion–exclusion over its faces.

    A subset e of the intent B has e'' = B exactly when it meets every face
    B \\ Bu, one per upper cover u, so the numerator is the sum over face
    sets S of (-1)^|S| * 2^(|B| - |∪S|).  Face sets with one union are
    merged as they are built.  ``upper_covers`` is read as given, so pass
    the oracle's.  Independent of the extent walk of every counter; its
    cost is exponential in the face count, not in |B|, and it is guarded
    to MAX_FACES faces.
    """
    b = concepts[i].intent
    faces = [b & ~concepts[u].intent for u in upper_covers[i]]
    if len(faces) > MAX_FACES:
        raise ValueError(f"concept {i} has {len(faces)} faces; the oracle "
                         f"caps at {MAX_FACES}")
    # union of a face set -> the sum of (-1)^|S| over the sets S with it
    signs = {0: 1}
    for face in faces:
        grown = dict(signs)
        for union, sign in signs.items():
            grown[union | face] = grown.get(union | face, 0) - sign
        signs = grown
    k = b.bit_count()
    return StabilityScore(
        sum(sign << (k - union.bit_count()) for union, sign in signs.items()),
        1 << k)


def generator_key(mask: int):
    """(size, members ascending), the documented generator ordering."""
    bits = []
    while mask:
        low = mask & -mask
        mask ^= low
        bits.append(low)
    return (len(bits), bits)


def berge_minimal_generators(lattice: ConceptLattice,
                             concept: FormalConcept) -> list[int]:
    """Oracle: the concept's minimal generators by Berge's transversal step.

    Written independently of the MMCS search and not bounded by the
    powerset oracle's intent guard.  The faces are B minus each upper
    cover's intent, taken one at a time from {∅}: candidates that meet the
    face survive, and each one that misses it is extended by every
    attribute a of the face, unless that extension contains a survivor
    that meets the face in a alone.  Candidates form an antichain, so that
    is the only non-minimal case and no extension arises twice.  Faces go
    smallest first, which changes the work but not the result.  Returns
    the family sorted by ``generator_key``.
    """
    b = concept.intent
    faces = sorted(
        (b & ~lattice.concepts[cid].intent
         for cid in lattice.upper_covers[lattice.index_of(concept)]),
        key=int.bit_count)
    family = [0]
    for face in faces:
        kept, missed = [], []
        # a -> the survivors that meet the face in a alone
        blockers: dict[int, list[int]] = {}
        for cand in family:
            meet = cand & face
            if not meet:
                missed.append(cand)
                continue
            kept.append(cand)
            if meet & (meet - 1) == 0:
                blockers.setdefault(meet, []).append(cand)
        for cand in missed:
            for a in iter_bits(face):
                ext = cand | 1 << a
                if not any(blocker & ext == blocker
                           for blocker in blockers.get(1 << a, ())):
                    kept.append(ext)
        family = kept
    return sorted(family, key=generator_key)


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


def cxt_table_oracle(lines, m: int) -> list[int]:
    """Row masks of a Burmeister cross table of m columns, one cell at a time.

    Raises DimensionMismatch or IllegalCell for the first faulty line.
    """
    rows = []
    for i, line in enumerate(lines):
        if len(line) != m:
            raise DimensionMismatch(
                f"row {i} has {len(line)} cells, expected {m}"
            )
        mask = 0
        for j, ch in enumerate(line):
            if ch == "X":
                mask |= 1 << j
            elif ch != ".":
                raise IllegalCell(ch, i, j)
        rows.append(mask)
    return rows


def cxt_rows_oracle(ctx: FormalContext) -> list[str]:
    """The cross-table lines of ctx in Burmeister format, one cell at a time."""
    m = ctx.n_attributes
    return [
        "".join("X" if row >> j & 1 else "." for j in range(m))
        for row in ctx.rows
    ]
