"""Minimal generators of concept intents.

A generator of a concept (A, B) is a subset h of B with h'' = B; minimal
generators are the inclusion-minimal ones.  They coincide with the minimal
transversals of the concept's faces -- for each upper cover (Au, Bu) the face
is B minus Bu -- which is what the incremental algorithm below computes, one
face at a time, pruning non-minimal candidates after each step.
"""
from __future__ import annotations

from .context import AttrSet, FormalContext
from .lattice import ConceptLattice, FormalConcept

BRUTE_FORCE_MAX_INTENT = 20


class IntentTooLarge(ValueError):
    """Intent exceeds an exponential-work guard."""


def _generator_sort_key(mask: int) -> tuple[int, list[int]]:
    # (size, low bits ascending); single-bit values order like bit indexes
    bits = []
    while mask:
        low = mask & -mask
        mask ^= low
        bits.append(low)
    return (len(bits), bits)


def _prune_non_minimal(masks: list[int]) -> list[int]:
    """Keep the inclusion-minimal masks (input may contain duplicates).

    Scanning by ascending popcount means a kept mask can never be subsumed
    by a later one; duplicates subsume each other and drop out on the spot.
    """
    masks.sort(key=int.bit_count)
    keep: list[int] = []
    for mask in masks:
        for kept in keep:
            if (kept & mask) == kept:
                break
        else:
            keep.append(mask)
    return keep


def faces(lattice: ConceptLattice, concept: FormalConcept) -> list[AttrSet]:
    """Intent differences B \\ Bu, one per upper cover of the concept."""
    i = lattice.index_of(concept)
    b = concept.intent
    return [b & ~lattice.concepts[j].intent for j in lattice.upper_covers[i]]


def minimal_generators(
    lattice: ConceptLattice, concept: FormalConcept
) -> list[AttrSet]:
    """All minimal generators of the concept's intent.

    Incremental transversal over the faces: candidates meeting the new face
    survive, the rest are extended by each of its attributes.  Returns masks
    sorted by (size, attribute order).  A concept without upper covers (the
    supremum) has the empty set as its only generator.
    """
    cover_ids = lattice.upper_covers[lattice.index_of(concept)]
    if not cover_ids:
        return [0]
    b = concept.intent
    concepts = lattice.concepts
    remaining = iter(cover_ids)
    face = b & ~concepts[next(remaining)].intent
    h: list[int] = []
    while face:
        low = face & -face
        face ^= low
        h.append(low)
    pruned = False
    for cid in remaining:
        face = b & ~concepts[cid].intent
        if len(h) == 1:
            # extensions of a single candidate by distinct attributes form
            # an antichain and are appended in canonical order
            cand = h[0]
            if cand & face:
                continue
            h = []
            while face:
                low = face & -face
                face ^= low
                h.append(cand | low)
            continue
        grown: list[int] | None = None  # allocated only when a candidate misses
        for pos, cand in enumerate(h):
            if cand & face:
                if grown is not None:
                    grown.append(cand)
            else:
                if grown is None:
                    grown = h[:pos]
                rest = face
                while rest:
                    low = rest & -rest
                    rest ^= low
                    grown.append(cand | low)
        if grown is not None:
            h = _prune_non_minimal(grown)
            pruned = True
    if pruned and len(h) > 1:
        h.sort(key=_generator_sort_key)
    return h


def brute_force_minimal_generators(
    ctx: FormalContext, concept: FormalConcept
) -> list[AttrSet]:
    """Oracle: test h'' = B over the whole powerset of B, keep minimal ones.

    Written independently of the face transversal; guarded to |B| <= 20.
    """
    b = concept.intent
    if b.bit_count() > BRUTE_FORCE_MAX_INTENT:
        raise IntentTooLarge(
            f"powerset oracle caps at {BRUTE_FORCE_MAX_INTENT} intent attributes"
        )
    gens: list[int] = []
    sub = b
    while True:
        if ctx.close_attrs(sub) == b:
            gens.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & b
    minimal = [
        h for h in gens
        if not any(other != h and (other & h) == other for other in gens)
    ]
    return sorted(minimal, key=_generator_sort_key)
