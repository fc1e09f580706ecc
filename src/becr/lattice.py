"""Concept enumeration and lattice cover structure.

Concepts are the fixed points of the derivation Galois connection: pairs
(extent, intent) with extent' = intent and intent' = extent.  They are
enumerated by Close-by-One (Kuznetsov 1993), at most |M| child extents
A ∩ m' per concept, in ascending lectic order of intents (attribute 0 has
the highest priority), which makes concept ids -- 0-based positions in
that order -- deterministic for a given context.  Id 0 is always the
supremum (G, G') and the last id the infimum (M', M).

The lattice stores upper covers only: minimal generators, the one consumer
of the order, read the faces to a concept's upper covers.  They come from
Lindig's neighbour step (Lindig 2000, "Fast concept analysis"): the lower
neighbours of (A, B) are the concepts whose extents are the maximal ones
among the candidate extents A ∩ m', m ∉ B, and (A, B) is recorded as an
upper cover of each.  For a maximal candidate e, an attribute n ∉ B has
e ⊆ n' exactly when A ∩ n' = e, so the neighbour's intent is B plus the
attributes whose candidates equal e: a lattice of C concepts costs at most
C * |M| candidate extents, no closure and no comparison of concept pairs.
Attribute extents m' are read off the concepts themselves, which is why
``build_covers`` needs the complete concept set of one context.  So are the
row classes: objects that lie in the same attribute extents share a row, and
every candidate is ANDed, counted and compared as a mask of one bit per
class, as enumeration does on the context's clarified view.  On a coin-toss
table of 20,000 objects and 970 distinct rows that is a 970-bit mask where
a 20,000-bit one was.
"""
from __future__ import annotations

import csv as _csv
import io
from dataclasses import dataclass
from functools import cached_property

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

    Depth first from (G, G'): (A, B) tries each m ∉ B past its own m, with
    one AND for the child extent A ∩ m' and a walk over its rows for the
    intent, kept iff that adds nothing below m.  Children pop largest m
    first, a lectic pre-order: all under the child at m hold m and agree
    with B below m, and none under a larger m holds m.

    The search runs on the context's row classes (``ctx.class_cols`` and
    ``ctx.class_rows``); a kept child takes one more AND on the object
    columns for its extent.

    Raises ConceptBudgetExceeded as soon as the count would pass ``budget``,
    and ValueError, before any work, for a budget that is not a positive
    ``int``.
    """
    if not isinstance(budget, int) or budget < 1:
        raise ValueError("budget must be a positive int")
    rows, cols, full = ctx.class_rows, ctx.class_cols, ctx.all_attributes
    obj_cols = ctx.cols
    concepts = []
    # (A as classes, A as objects, B, first m)
    stack = [(ctx.all_classes, ctx.all_objects, ctx.close_attrs(0), 0)]
    while stack:
        classes, extent, intent, start = stack.pop()
        if len(concepts) >= budget:
            raise ConceptBudgetExceeded(
                f"more than {budget} concepts; raise the budget to continue"
            )
        concepts.append(FormalConcept(extent, intent))
        for m in range(start, ctx.n_attributes):
            bit = 1 << m
            if intent & bit:
                continue
            child = rest = classes & cols[m]
            acc, target = full, intent | bit
            while rest and acc != target:  # each row keeps acc ⊇ target
                low = rest & -rest
                rest ^= low
                acc &= rows[low.bit_length() - 1]
            if (acc ^ intent) & (bit - 1) == 0:
                stack.append((child, extent & obj_cols[m], acc, m + 1))
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
    """Upper covers by Lindig's neighbour step (C * |M| candidate extents).

    Concepts are visited in id order, so each cover tuple comes out
    ascending.  ``concepts`` must be the complete concept set of one context,
    as ``enumerate_concepts`` returns it; the ids of the result are positions
    in that list.  Each attribute extent m' is read off one concept, the
    attribute concept ({m}', {m}''), so the list must hold every attribute
    concept: without one, m' is read off a smaller extent and the covers
    are not checked.  Any other lower neighbour that the list lacks raises
    ValueError, as does a list without exactly one concept that has no
    upper cover: the list is empty, the top is missing, or a concept is
    listed twice, whose first copy gets no covers because the intent index
    finds the last.

    The step runs on row classes read off those attribute extents:
    objects in the same ones share a row, so every extent is a union of
    classes, and the candidates are ANDed, counted and compared as masks
    of one bit per class.  Each concept ANDs its intent's class columns for
    its class extent, and its listed extent is checked once, on objects,
    against A ∩ m' at the first edge to it.
    """
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
    # objects in the same attribute extents share a row: write each
    # object's digits across the extents as one line of a table, and the
    # distinct lines are the row classes, whose k-th digits are the class
    # column of the k-th attribute.  One more digit than the widest extent,
    # an object in no extent, keeps a line when every extent is empty
    m = len(ext)
    width = max(ext.values(), default=0).bit_length() + 1
    top = 1 << width
    table = bytearray(b"\n" * (width * (m + 1)))
    for k, e in enumerate(ext.values()):
        table[k::m + 1] = bin(e | top)[3:].encode()
    lines = dict.fromkeys(bytes(table).split())
    digits = b"".join(lines)
    class_col = {bit: int(digits[k::m], 2) for k, bit in enumerate(ext)}
    every = (1 << len(lines)) - 1
    upper: list[list[int]] = [[] for _ in concepts]
    for i, c in enumerate(concepts):
        a, b = c.extent, c.intent
        classes = every
        rest = b
        while rest:
            bit = rest & -rest
            rest ^= bit
            classes &= class_col[bit]
        candidates = []
        rest = attributes & ~b
        while rest:
            bit = rest & -rest
            rest ^= bit
            e = classes & class_col[bit]
            candidates.append((e.bit_count(), bit, e))
        # largest first, so one that no kept neighbour contains is maximal: a
        # strictly smaller union of classes has fewer classes; the bits are
        # distinct, so no two extents are ever compared
        candidates.sort(reverse=True)
        # [extent, size, intent]: maximal candidates, merged with equal ones
        neighbours: list[list[int]] = []
        for size, bit, e in candidates:
            for n in neighbours:
                if e & n[0] == e:
                    if size == n[1]:
                        n[2] |= bit
                    break
            else:
                neighbours.append([e, size, b | bit])
        for _, _, d in neighbours:
            j = index.get(d)
            if j is not None and not upper[j]:
                # the first edge to j, which checks its listed extent: that
                # is A ∩ n' for each attribute n the neighbour adds, and
                # any other extent is a neighbour not listed
                new = d ^ b
                if concepts[j].extent != a & ext[new & -new]:
                    j = None
            if j is None:
                raise ValueError(
                    f"concept {i} has a lower neighbour missing from the list"
                )
            upper[j].append(i)
    tops = upper.count([])
    if tops != 1:
        raise ValueError(f"{tops} concepts have no upper cover; the top "
                         "alone must have none")
    lattice.upper_covers = [tuple(u) for u in upper]
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
