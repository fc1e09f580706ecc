"""Minimal generators of concept intents.

A generator of a concept (A, B) is a subset h of B with h'' = B; minimal
generators are the inclusion-minimal ones.  They coincide with the minimal
transversals of the concept's faces -- for each upper cover (Au, Bu) the face
is B minus Bu -- which ``generator_family`` finds by MMCS, a depth-first
search that keeps every partial set minimal as it goes (Murakami and Uno,
"Efficient algorithms for dualizing large-scale hypergraphs", 2014).

There are two orders.  ``generator_family`` returns the family in the order
the search reaches it; ``becr`` reads that, since both BECR terms only AND
the family and count it.  ``minimal_generators`` returns it sorted, the
order every other caller sees.
"""
from __future__ import annotations

from .context import AttrSet, FormalContext, iter_bits
from .lattice import ConceptLattice, FormalConcept, lectic_key

BRUTE_FORCE_MAX_INTENT = 20


class IntentTooLarge(ValueError):
    """Intent exceeds an exponential-work guard."""


def generator_family(
    lattice: ConceptLattice, concept: FormalConcept
) -> list[AttrSet]:
    """All minimal generators of the concept's intent, in search order.

    One pass over the upper covers ORs the one-attribute faces into
    ``forced`` and collects the others.  Each face {a} must be hit, so ``a``
    is in every generator, and no other face holds ``a``: a face B minus Bu2
    that did would give Bu2 ⊆ B minus {a} = Bu1, and upper covers are
    incomparable.  ``forced`` is all of ∩H, the members every generator
    holds: m is in each one exactly when B minus {m} is no generator, that
    is, when it is closed and {m} is a face.  When every face is a single
    attribute the concept has one generator, ``[forced]``, and no search
    runs (833 of the 848 concepts of coin-toss 793x10).  A concept without
    upper covers (the supremum) has the empty set as its only generator.

    The other faces go to MMCS, which searches for their minimal
    transversals depth first; each one, ORed with ``forced``, is a minimal
    generator.  The faces are numbered smallest first, ties in cover order,
    and ``hit[a]`` is the mask of the faces that attribute ``a`` meets.  A
    node of the search holds the partial set, ``uncov``, the mask of the
    faces it does not meet yet, and one ``crit`` mask per member it added:
    the faces that member alone meets.  The node branches on the candidates
    in its first uncovered face, the smallest one, in ascending attribute
    order.  A new member takes the faces it meets out of every ``crit``;
    once one of them empties, that member is redundant in every superset,
    so the branch is cut.  A branch whose ``uncov`` empties is a minimal
    transversal.  Within the branch on a candidate, the candidates of the
    later branches on the same face are left out, so no set is reached
    twice.  The result does not depend on the face order, the work does:
    the bottom concept of coin-toss 14x32 (p=0.6, seed 42) has 4,005
    generators, which take 1,282 inner nodes with the faces smallest first
    and 2,774 in cover order.

    The masks come out in search order, which depends on the face order;
    ``minimal_generators`` sorts them.  ``becr`` runs the whole search on
    every call, so the BECR times of ``becr bench`` include it.
    """
    b = concept.intent
    concepts = lattice.concepts
    forced = 0
    faces = []
    for cid in lattice.upper_covers[lattice.index_of(concept)]:
        face = b & ~concepts[cid].intent
        if face & (face - 1):
            faces.append(face)
        else:
            forced |= face
    # upper covers are incomparable, so no face of two or more attributes
    # meets ``forced``: most concepts stop here
    if not faces:
        return [forced]
    faces.sort(key=int.bit_count)
    hit: dict[int, int] = {}
    bit = 1
    for face in faces:
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            hit[low] = hit.get(low, 0) | bit
        bit <<= 1
    family: list[int] = []

    def search(chosen: int, cand: int, uncov: int, crits: list[int]) -> None:
        face = faces[(uncov & -uncov).bit_length() - 1]
        branch = cand & face
        cand ^= branch
        # each branch, once taken, is a candidate of the later ones
        while branch:
            low = branch & -branch
            branch ^= low
            meets = hit[low]
            for crit in crits:
                if crit & meets == crit:
                    break
            else:
                rest = uncov & ~meets
                if rest:
                    search(chosen | low, cand, rest,
                           [crit & ~meets for crit in crits]
                           + [uncov & meets])
                else:
                    family.append(chosen | low)
            cand |= low

    # a branch lies in a face, so only face members are ever taken from b
    search(forced, b, (1 << len(faces)) - 1, [])
    return family


def minimal_generators(
    lattice: ConceptLattice, concept: FormalConcept
) -> list[AttrSet]:
    """All minimal generators of the concept's intent, sorted.

    ``generator_family`` sorted by size, then in descending lectic order
    (``lectic_key``): within one size, members ascending.  A concept
    without upper covers (the supremum) has the empty set as its only
    generator.

    Two stable passes: the bit strings read attribute 0 first, descending,
    then the sizes.  Within one size no such string is a prefix of another,
    since each ends at its last member, so the first pass is the lectic one.
    """
    family = generator_family(lattice, concept)
    if len(family) > 1:
        family.sort(key=lambda g: bin(g)[:1:-1], reverse=True)
        family.sort(key=int.bit_count)
    return family


def brute_force_minimal_generators(
    ctx: FormalContext, concept: FormalConcept
) -> list[AttrSet]:
    """Oracle: test h'' = B over the whole powerset of B, keep minimal ones.

    Written independently of the face transversals; guarded to |B| <= 20.
    """
    b = concept.intent
    if b.bit_count() > BRUTE_FORCE_MAX_INTENT:
        raise IntentTooLarge(
            f"powerset oracle caps at {BRUTE_FORCE_MAX_INTENT} intent attributes"
        )
    gens: set[int] = set()
    sub = b
    while True:
        if ctx.close_attrs(sub) == b:
            gens.add(sub)
        if sub == 0:
            break
        sub = (sub - 1) & b
    # closure is monotone, so a generator that contains a smaller one also
    # contains one that is a single attribute smaller
    minimal = [
        h for h in gens
        if not any(h & ~(1 << m) in gens for m in iter_bits(h))
    ]
    width = b.bit_length()
    return sorted(minimal, key=lambda g: (g.bit_count(), -lectic_key(g, width)))
