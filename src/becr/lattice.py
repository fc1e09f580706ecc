"""Concept enumeration and lattice cover structure.

Concepts are the fixed points of the derivation Galois connection: pairs
(extent, intent) with extent' = intent and intent' = extent.  Concept ids
are 0-based positions in ascending lectic order of intents (attribute 0
has the highest priority), which makes them deterministic for a given
context.  Id 0 is always the supremum (G, G') and the last id the infimum
(M', M).

Both stages run on one side, picked by one rule: the object side with
fewer objects than attributes, the attribute side otherwise.  A coin-toss
table of 14 objects over 32 attributes takes the object side, and one of
20,000 objects over 10 attributes the attribute side.

Enumeration is Close-by-One (Kuznetsov 1993).  On the attribute side it
closes attribute sets over the clarified view, a mask of one bit per row
class where an extent would take one bit per object, and hands out
concepts in lectic order.  On the object side it closes object sets,
stepping only to the first object of each row class, and sorts the
concepts once.  A lattice of C concepts costs at most C * |M| children
on the attribute side and C * classes on the object side.

The lattice stores upper covers only: minimal generators, the one consumer
of the order, read the faces to a concept's upper covers.  Covers step up
from each concept (A, B) on the same side.  On the attributes, each listed
removal B \\ {m} is an upper neighbour, and the others are the maximal
intents among B ∩ g', for the objects g of F' \\ A, where F holds the
removed members m.  On the objects, they are the maximal intents among
B ∩ g' for the objects g outside A: Lindig's neighbour step (Lindig 2000,
"Fast concept analysis").  No closure is computed and no two concepts are
compared.  Attribute extents m' are read off the concepts themselves, which
is why ``build_covers`` needs the complete concept set of one context, and
so, on the object side, are the objects' rows.
"""
from __future__ import annotations

import io
from functools import cached_property, reduce
from operator import and_, attrgetter

from .context import AttrSet, FormalContext, FrozenRecord, ObjSet, Record

DEFAULT_CONCEPT_BUDGET = 1_000_000
BRUTE_FORCE_MAX_OBJECTS = 20


class ConceptBudgetExceeded(RuntimeError):
    """Enumeration passed the configured concept cap."""


class ContextTooLarge(ValueError):
    """Context exceeds a brute-force guard."""


class FormalConcept(FrozenRecord):
    """An immutable concept: its extent, an object mask, and its intent,
    an attribute mask."""

    __slots__ = __match_args__ = ("extent", "intent")

    def __init__(self, extent: ObjSet, intent: AttrSet):
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "intent", intent)


def lectic_key(intent: AttrSet, width: int) -> int:
    """Sort key realizing lectic order: smallest differing attribute wins.

    The key is the mask's bit string read attribute 0 first, so integer
    comparison agrees with the set order A < B iff min(A xor B) lies in B.
    It is the package's one attribute-set order: concept ids ascend in it,
    and a minimal-generator family is sorted by size, then in descending
    lectic order.

    Raises ValueError for a negative intent or a bit at or above ``width``.
    """
    if intent < 0 or intent >> width:
        raise ValueError(f"intent {intent} is not a subset of {width} attributes")
    return int(bin(intent)[:1:-1].ljust(width, "0"), 2)


def enumerate_concepts(
    ctx: FormalContext,
    budget: int = DEFAULT_CONCEPT_BUDGET,
) -> list[FormalConcept]:
    """All concepts of ``ctx`` in ascending lectic order of intents.

    Close-by-One on the side that ``build_covers`` takes: it closes
    subsets of the attributes, or, when there are fewer objects than
    attributes, subsets of the objects.  Depth first from the closure of
    the empty set, (X, Y) tries each step m ∉ Y past its own m, with one
    AND for the child X ∩ m' and a walk over its members for Y', kept iff
    that adds nothing below m.  Children pop largest m first, a lectic
    pre-order: all under the child at m hold m and agree with Y below m,
    and none under a larger m holds m.

    On the attributes, X is the class extent over the row classes
    (``ctx.class_rows`` and ``ctx.class_cols``) and Y the intent, and a
    kept child takes one more AND on the object columns for its extent, so
    the concepts come out in lectic order, at most C * |M| children for a
    lattice of C concepts.  On the objects, X is the intent and Y the
    extent, and the steps are the first object of each row class only.  A
    later object of a class joins every closure that holds the first, so
    it never starts a kept child, and the test reads as on any object
    set: every object below a class's first is in an earlier class, and a
    closure holds whole classes.  That is at most C * classes children,
    and the concepts are sorted by ``lectic_key`` once at the end.

    Raises ConceptBudgetExceeded as soon as the count would pass ``budget``,
    and ValueError, before any work, for a budget that is not a positive
    ``int``.
    """
    if not isinstance(budget, int) or budget < 1:
        raise ValueError("budget must be a positive int")
    transposed = ctx.n_objects < ctx.n_attributes
    if transposed:
        # each row class's first object: a later one joins every closure
        # that holds the first, so it never starts a kept child
        first: dict[int, int] = {}
        for g, row in enumerate(ctx.rows):
            first.setdefault(row, g)
        steps = [1 << g for g in first.values()]
        rows, cols = ctx.cols, ctx.class_rows
        full, every = ctx.all_objects, ctx.all_attributes
    else:
        steps = [1 << m for m in range(ctx.n_attributes)]
        rows, cols = ctx.class_rows, ctx.class_cols
        full, every = ctx.all_attributes, ctx.all_classes
    obj_cols = ctx.cols
    closed = reduce(and_, rows, full)
    concepts = []
    # (X, the extent as objects, Y, first step)
    stack = [(every, closed if transposed else ctx.all_objects, closed, 0)]
    while stack:
        items, extent, closed, start = stack.pop()
        if len(concepts) >= budget:
            raise ConceptBudgetExceeded(
                f"more than {budget} concepts; raise the budget to continue"
            )
        concepts.append(FormalConcept(extent, items if transposed else closed))
        for m in range(start, len(cols)):
            bit = steps[m]
            if closed & bit:
                continue
            child = rest = items & cols[m]
            acc, target = full, closed | bit
            while rest and acc != target:  # each member keeps acc ⊇ target
                low = rest & -rest
                rest ^= low
                acc &= rows[low.bit_length() - 1]
            if (acc ^ closed) & (bit - 1) == 0:
                stack.append((child,
                              acc if transposed else extent & obj_cols[m],
                              acc, m + 1))
    if transposed:
        width = ctx.n_attributes
        concepts.sort(key=lambda c: lectic_key(c.intent, width))
    return concepts


def brute_force_concepts(ctx: FormalContext) -> list[FormalConcept]:
    """Oracle enumeration: close every object subset, dedupe, sort lectically.

    Independent of Close-by-One; guarded to |G| <= 20 objects.
    """
    n = ctx.n_objects
    if n > BRUTE_FORCE_MAX_OBJECTS:
        raise ContextTooLarge(
            f"brute force caps at {BRUTE_FORCE_MAX_OBJECTS} objects, got {n}"
        )
    by_intent: dict[int, int] = {}
    for objs in range(1 << n):
        intent = ctx.derive_intent(objs)
        if intent not in by_intent:
            by_intent[intent] = ctx.derive_extent(intent)
    width = ctx.n_attributes
    return [
        FormalConcept(extent, intent)
        for intent, extent in sorted(
            by_intent.items(), key=lambda kv: lectic_key(kv[0], width)
        )
    ]


class ConceptLattice(Record):
    """Concepts plus their upper covers: ``upper_covers[i]`` holds the ids
    of the concepts directly above concept i, in ascending order."""

    __match_args__ = ("concepts", "upper_covers")

    def __init__(self, concepts: list[FormalConcept],
                 upper_covers: list[tuple[int, ...]]):
        self.concepts = concepts
        self.upper_covers = upper_covers

    @cached_property
    def _index(self) -> dict[int, int]:
        # keyed by intent: it determines the concept, and intent masks are far
        # smaller than extents on object-heavy contexts
        return {c.intent: i for i, c in enumerate(self.concepts)}

    def __len__(self) -> int:
        return len(self.concepts)

    def index_of(self, concept: FormalConcept) -> int:
        """The id of ``concept``; ValueError unless both its intent and its
        extent are those of a concept of this lattice."""
        i = self._index.get(concept.intent)
        if i is None or self.concepts[i].extent != concept.extent:
            raise ValueError("concept does not belong to this lattice")
        return i


def build_covers(concepts: list[FormalConcept]) -> ConceptLattice:
    """Upper covers, stepped up from each concept (A, B): one-attribute
    removals on the attribute side, Lindig's neighbour step on the object
    side.

    ``concepts`` must be the complete concept set of one context, as
    ``enumerate_concepts`` returns it, in any order; the ids of the result
    are positions in that list, and each cover tuple is ascending.  Each
    attribute extent m' is read off the attribute concept ({m}', {m}''), so
    the list must hold every attribute concept.  The objects are the bits
    below the widest listed extent's highest one.

    With no fewer objects than attributes, F holds the members m ∈ B whose
    removal B \\ {m} is listed, and each such removal is an upper
    neighbour.  A face of two or more members misses F, as faces are
    pairwise incomparable, so where F = B, or F' = A, there is no other.
    Otherwise F' \\ A is split on the columns of B \\ F, one AND per part
    and column: each part's pattern is B ∩ g' for its objects g, and the
    maximal patterns are the other upper neighbours.  That is |B| lookups
    per concept, and ANDs only where F ≠ B.  With fewer objects, the upper
    neighbours are the maximal intents among B ∩ g', for the objects g
    outside A = B', each row g' read off the attribute extents: at most
    min(|G|, |M|) candidates per concept.

    The list is checked as it is read.  ValueError is raised, before any
    work, for a negative intent or extent; for a list without the bottom
    concept (M', M); for a neighbour that the list lacks; and for a list
    without exactly one concept that has no upper cover and exactly one
    that has no lower cover: the list is empty, the top is missing, or a
    concept is listed twice, whose other copy gets no covers.  The top's
    extent must hold every object.  On the attribute side, each other
    listed extent A must be U' ∩ n' over the whole face to its first upper
    neighbour U, and differ from every upper extent; on the object side, it
    must be the AND of B's attribute extents.  An intent that an object
    outside A holds raises as not closed.

    Two kinds of corruption can pass.  An attribute concept's extent is
    read as m', so its check compares it in part with itself.  And a top
    without the last object, where that object lies in no attribute extent,
    reads as the top of the context without that object.
    """
    # a negative mask has no highest bit, and the attribute-extent pass
    # below would never run out of bits
    if (min(map(attrgetter("intent"), concepts), default=0) < 0
            or min(map(attrgetter("extent"), concepts), default=0) < 0):
        i = next(i for i, c in enumerate(concepts)
                 if c.intent < 0 or c.extent < 0)
        raise ValueError(f"concept {i} has a negative intent or extent")
    lattice = ConceptLattice(concepts, [])
    index = lattice._index
    # m' is the extent of ({m}', {m}''): {m}'' lies in every intent that
    # holds m, so it is the smallest of them and comes first in size order
    attributes = 0
    ext = {}
    for c in sorted(concepts, key=lambda c: c.intent.bit_count()):
        new = c.intent & ~attributes
        attributes |= new
        while new:
            bit = new & -new
            new ^= bit
            ext[bit] = c.extent
    # the widest listed extent, the top's, spans the objects: F' and B' are
    # ANDs over them, and the top is checked against all of them below
    width = max((c.extent for c in concepts), default=0).bit_length()
    every = (1 << width) - 1
    # the bottom's intent is M, attributes 0 to |M| - 1 of its context
    if concepts and (attributes not in index or attributes & (attributes + 1)):
        raise ValueError("the bottom concept is missing from the list")
    transposed = width < len(ext)
    if transposed:
        # object g's row: the attributes whose extents hold g
        rows = {1 << g: sum(bit for bit, e in ext.items() if e >> g & 1)
                for g in range(width)}
    extents = [c.extent for c in concepts]
    upper: list[list[int]] = [[] for _ in concepts]
    has_lower = [False] * len(concepts)
    for i, c in enumerate(concepts):
        a, b = c.extent, c.intent
        # a concept listed twice: the index finds the last copy, and any
        # other gets no covers
        if index[b] != i:
            continue
        up = upper[i]
        if not transposed:
            # F, the members whose removal is listed: no intent lies between
            # two sets one attribute apart, so each removal is a neighbour
            f, rest = 0, b
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = index.get(b ^ bit)
                if j is not None:
                    up.append(j)
                    has_lower[j] = True
                    f |= bit
            face = f & -f
            # a face of two or more members misses F, as faces are pairwise
            # incomparable, so its neighbour's extent holds an object of
            # F' \ A
            if f != b:
                rest, objs = f, every & ~a
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    objs &= ext[bit]
                if objs:
                    # split on the columns of B \ F: each part's pattern
                    # is B ∩ g' for its objects g
                    parts, patterns = [objs], [f]
                    rest = b ^ f
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        col = ext[bit]
                        for k in range(len(parts)):
                            objs = parts[k]
                            inside = objs & col
                            if inside == objs:
                                patterns[k] |= bit
                            elif inside:
                                parts[k] ^= inside
                                parts.append(inside)
                                patterns.append(patterns[k] | bit)
                    kept: list[int] = []
                    for p in sorted(patterns, key=int.bit_count, reverse=True):
                        for q in kept:
                            if p & q == p:
                                break
                        else:
                            # an object outside A that holds all of B
                            if p == b:
                                raise ValueError(f"concept {i} has an intent "
                                                 "that is not closed")
                            kept.append(p)
                            j = index.get(p)
                            if j is None:
                                raise ValueError(f"concept {i} has an upper "
                                                 "neighbour missing from the "
                                                 "list")
                            up.append(j)
                            has_lower[j] = True
                    if not face:
                        face = b ^ kept[0]
            if up:
                # an upper extent equal to A shows an intent that is not
                # closed, and the first edge up checks the listed extent: it
                # is the upper one ∩ n' over the whole face
                if a in map(extents.__getitem__, up):
                    raise ValueError(f"concept {i} has an intent that is not "
                                     "closed")
                e = extents[up[0]]
                while face:
                    bit = face & -face
                    face ^= bit
                    e &= ext[bit]
                if e != a:
                    raise ValueError(f"concept {i} has an upper neighbour "
                                     "missing from the list")
        else:
            # candidates read off the listed extent would let some
            # corruptions of it through: it must be B', derived here
            y, rest = every, b
            while rest:
                bit = rest & -rest
                rest ^= bit
                y &= ext[bit]
            if y != a:
                raise ValueError(f"concept {i} has an extent that is not "
                                 "its intent's")
            candidates = []
            rest = every & ~y
            while rest:
                bit = rest & -rest
                rest ^= bit
                e = b & rows[bit]
                candidates.append((e.bit_count(), bit, e))
            # largest first, so one that no kept neighbour contains is
            # maximal: a strictly smaller candidate has fewer bits; the bits
            # are distinct, so no two candidates are ever compared
            candidates.sort(reverse=True)
            # [intent, size, objects]: maximal candidates, merged with equal
            # ones
            neighbours: list[list[int]] = []
            for size, bit, e in candidates:
                for n in neighbours:
                    if e & n[0] == e:
                        if size == n[1]:
                            n[2] |= bit
                        break
                else:
                    neighbours.append([e, size, y | bit])
            for e, _, objs in neighbours:
                j = index.get(e)
                if j is None:
                    # a missing top is left to the count of tops below
                    if objs == every:
                        continue
                    raise ValueError(f"concept {i} has an upper neighbour "
                                     "missing from the list")
                up.append(j)
                has_lower[j] = True
    tops = upper.count([])
    if tops != 1:
        raise ValueError(f"{tops} concepts have no upper cover; the top "
                         "alone must have none")
    top = upper.index([])
    if concepts[top].extent != every:
        raise ValueError(f"concept {top}, the top, does not hold every object")
    bottoms = has_lower.count(False)
    if bottoms != 1:
        raise ValueError(f"{bottoms} concepts have no lower cover; the "
                         "bottom alone must have none")
    lattice.upper_covers = list(map(tuple, map(sorted, upper)))
    return lattice


def _join_names(names: list[str]) -> str:
    return ";".join(n.replace("\\", "\\\\").replace(";", "\\;") for n in names)


def concepts_csv(ctx: FormalContext, concepts: list[FormalConcept]) -> str:
    """Concept list as CSV: id, ';'-joined extent names, ';'-joined intent
    names, with a backslash written before each '\\' and ';' in a name."""
    import csv  # only this writer and parse_csv read or write CSV

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "extent", "intent"])
    for i, c in enumerate(concepts):
        writer.writerow([i, _join_names(ctx.obj_names(c.extent)),
                         _join_names(ctx.attr_names(c.intent))])
    return buf.getvalue()
