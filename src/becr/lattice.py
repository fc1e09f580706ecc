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
of the order, read the faces to a concept's upper covers.  They come from
Lindig's neighbour step (Lindig 2000, "Fast concept analysis"), on object
and attribute masks; covers read no row class.  On the attribute side, the
lower neighbours of (A, B) are the concepts whose extents are the maximal
ones among the candidates A ∩ m', m ∉ B.  For a maximal candidate e, an
attribute n ∉ B has e ⊆ n' exactly when A ∩ n' = e, so the neighbour's
intent is B plus the attributes whose candidates equal e.  The step is
needed only where some one-attribute step B ∪ {m}, m ∉ B, is not an
intent: any lower neighbour holds some step and is that step wherever it
is closed, so where every step is a listed intent, the steps are the
lower neighbours.  On the object side, the upper neighbours of (A, B)
are the concepts whose intents are the maximal ones among B ∩ g', for
the objects g outside A.  A lattice of C concepts thus costs at most
|M \\ B| intent lookups per concept on the attribute side, and Lindig's
min(|G|, |M|) candidates only for the concepts that have a step that is
no intent (every concept, on the object side), with no closure and no
comparison of concept pairs.  Attribute extents m' are read off the
concepts themselves, which is why ``build_covers`` needs the complete
concept set of one context, and so, on the object side, are the objects'
rows.
"""
from __future__ import annotations

import csv as _csv
import io
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, attrgetter

from .context import AttrSet, FormalContext, ObjSet

DEFAULT_CONCEPT_BUDGET = 1_000_000
BRUTE_FORCE_MAX_OBJECTS = 20


class ConceptBudgetExceeded(RuntimeError):
    """Enumeration passed the configured concept cap."""


class ContextTooLarge(ValueError):
    """Context exceeds a brute-force guard."""


@dataclass(frozen=True)
class FormalConcept:
    extent: ObjSet
    intent: AttrSet


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


@dataclass
class ConceptLattice:
    """Concepts plus their upper covers: ``upper_covers[i]`` holds the ids
    of the concepts directly above concept i, in ascending order."""

    concepts: list[FormalConcept]
    upper_covers: list[tuple[int, ...]]

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
    """Upper covers from the one-attribute steps of each intent, and
    Lindig's neighbour step where a step is no intent.

    ``concepts`` must be the complete concept set of one context, as
    ``enumerate_concepts`` returns it, in any order; the ids of the result
    are positions in that list, and each cover tuple is ascending.  Each
    attribute extent m' is read off one concept, the attribute concept
    ({m}', {m}''), so the list must hold every attribute concept: without
    one, m' is read off a smaller extent and the covers are not checked.
    The objects are the bits below the widest listed extent's highest one.

    The step runs on the smaller side, the objects or the attributes, as
    object and attribute masks.  With no fewer objects than attributes, a
    concept first looks up its steps B ∪ {m}, m ∉ B, in the list, stopping
    at the first that is no intent: at most |M \\ B| lookups.  Where all
    are intents, they are its lower neighbours, with no candidate.
    Otherwise its lower neighbours are the maximal extents among A ∩ m',
    m ∉ B, on its listed extent A, whose intents are B plus the attributes
    whose candidates are equal.  With fewer objects, a concept's upper
    neighbours are the maximal intents among B ∩ g', for the objects g
    outside B', with each row g' read off the attribute extents and B' the
    AND of B's: at most min(|G|, |M|) candidates either way.
    ``enumerate_concepts`` takes the same side, at most C * classes
    children for C concepts on the object side and C * |M| on the
    attribute side.

    The list is checked as it is read.  ValueError is raised, before any
    work, for a negative intent or extent.  It is raised for a list
    without the bottom concept (M', M), for a neighbour that the list
    lacks, and for a list without exactly one concept that has no upper
    cover and exactly one that has no lower cover: the list is empty, the
    top is missing, or a concept is listed twice, whose other copy gets no
    covers because the intent index finds the last.  The top's extent must
    hold every object, but the object count is read off the extents, so
    a top without the last object, where that object lies in no attribute
    extent, passes: the list is then the lattice of the context without
    that object.  Each other concept's listed extent is checked once,
    at the first edge up from it: the lower extent must be the upper one
    ∩ m' for an attribute m that the lower concept adds, and the two must
    differ.  An attribute concept's extent is read as m', so that check
    may compare it with itself, and a corruption of it can pass.  A listed
    intent that is not closed raises too, so that no concept takes it for
    a step: a step with the concept's own extent counts as a neighbour not
    listed, and a Lindig candidate equal to A names the intent.
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
    # the widest listed extent, the top's, spans the objects: the object
    # side steps up from those outside B', and the top is checked against
    # all of them below
    width = max((c.extent for c in concepts), default=0).bit_length()
    every = (1 << width) - 1
    # the bottom's intent is M, attributes 0 to |M| - 1 of its context
    if concepts and (attributes not in index or attributes & (attributes + 1)):
        raise ValueError("the bottom concept is missing from the list")
    transposed = width < len(ext)
    if transposed:
        # object g's row: the attributes whose extents hold g
        side, direction = every, "an upper"
        cols = {1 << g: sum(bit for bit, e in ext.items() if e >> g & 1)
                for g in range(width)}
    else:
        side, cols, direction = attributes, ext, "a lower"
    # upper[i]: the upper covers of concept i, whichever side finds them;
    # has_lower[i]: whether concept i has a lower cover
    upper: list[list[int]] = [[] for _ in concepts]
    has_lower = [False] * len(concepts)

    def extent_holds(low: int, high: int) -> bool:
        # the first edge up from the lower concept checks its listed extent:
        # that is the upper one ∩ n' for each attribute n the lower concept
        # adds, and any other extent is a neighbour not listed
        below, above = concepts[low], concepts[high]
        new = below.intent ^ above.intent
        return (below.extent == above.extent & ext[new & -new]
                and below.extent != above.extent)

    for i, c in enumerate(concepts):
        b = c.intent
        # a concept listed twice: the index finds the last copy, and any
        # other gets no covers
        if index[b] != i:
            continue
        if not transposed:
            # a lower neighbour D holds some step B ∪ {m}, m ∉ B, and is
            # that step wherever it is closed: where every step is a listed
            # intent, the steps are the lower neighbours, with no candidate.
            # That takes each listed intent for closed, so each concept
            # checks its own: a step with B's extent shows that B is not
            # closed, as a Lindig candidate equal to A does below
            lower = []
            rest = attributes & ~b
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = index.get(b | bit)
                if j is None:
                    break
                lower.append(j)
            else:
                for j in lower:
                    if (concepts[j].extent == c.extent
                            or not (upper[j] or extent_holds(j, i))):
                        raise ValueError(f"concept {i} has a lower neighbour "
                                         "missing from the list")
                    upper[j].append(i)
                has_lower[i] = bool(lower)
                continue
        x, y = c.extent, b
        if transposed:
            # B' is derived from the attribute extents, not listed: the
            # listed extent is checked at the first edge up, and candidates
            # read off it would let some corruptions of it through
            x, y, rest = b, every, b
            while rest:
                bit = rest & -rest
                rest ^= bit
                y &= ext[bit]
        candidates = []
        rest = side & ~y
        while rest:
            bit = rest & -rest
            rest ^= bit
            e = x & cols[bit]
            candidates.append((e.bit_count(), bit, e))
        # largest first, so one that no kept neighbour contains is maximal: a
        # strictly smaller candidate has fewer bits; the bits are distinct,
        # so no two candidates are ever compared
        candidates.sort(reverse=True)
        # a candidate equal to X: some item outside the concept holds all
        # of it, so B is not closed (on the object side, X is B itself, and
        # no object outside B' holds it)
        if candidates and candidates[0][2] == x:
            raise ValueError(f"concept {i} has an intent that is not closed")
        # [X, size, Y]: maximal candidates, merged with equal ones
        neighbours: list[list[int]] = []
        for size, bit, e in candidates:
            for n in neighbours:
                if e & n[0] == e:
                    if size == n[1]:
                        n[2] |= bit
                    break
            else:
                neighbours.append([e, size, y | bit])
        for e, _, y in neighbours:
            j = index.get(e if transposed else y)
            # a missing top, on the object side, is left to the count of
            # tops below; on the attribute side this test would find the
            # bottom, which is checked above
            if j is None and y == side:
                continue
            # the object side steps up from i, the attribute side down.  Two
            # conditionals, not one swapped tuple: building that tuple on
            # every edge made covers about 2% slower
            low = i if transposed else j
            high = j if transposed else i
            if j is None or not (upper[low] or extent_holds(low, high)):
                raise ValueError(f"concept {i} has {direction} neighbour "
                                 "missing from the list")
            upper[low].append(high)
            has_lower[high] = True
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
    # the attribute side appends in id order; the object side in the order
    # of each concept's neighbours
    lattice.upper_covers = [tuple(sorted(u) if transposed else u)
                            for u in upper]
    return lattice


def _join_names(names: list[str]) -> str:
    return ";".join(n.replace("\\", "\\\\").replace(";", "\\;") for n in names)


def concepts_csv(ctx: FormalContext, concepts: list[FormalConcept]) -> str:
    """Concept list as CSV: id, ';'-joined extent names, ';'-joined intent
    names, with a backslash written before each '\\' and ';' in a name."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "extent", "intent"])
    for i, c in enumerate(concepts):
        writer.writerow([i, _join_names(ctx.obj_names(c.extent)),
                         _join_names(ctx.attr_names(c.intent))])
    return buf.getvalue()
