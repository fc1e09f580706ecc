"""Per-concept relevance scores: the BECR index and extensional stability.

All scores are carried as exact ``fractions.Fraction`` values; callers
convert to float at output boundaries only.

BECR of a concept (A, B) is the mean of two terms.  The alpha term counts
base attributes of B (attributes whose removal, together with their removal
set, changes the closure) or, when there are none, attributes equivalent on
the concept (m' = A with a non-singleton closure).  The beta term rates the
minimal-generator family H of B: several generators score min(|H| / |B|, 1),
a single proper generator scores 1 / |B|, and H = {B} scores 0.

Stability is the fraction of intent subsets whose extent equals A.  The
subsets that qualify are closed upwards in B (e ⊆ f ⊆ B and e' = A give
A = B' ⊆ f' ⊆ e' = A).  ``stability`` uses this: it walks the intent's
columns once, merging the subsets chosen so far by their extent, and counts
all supersets of a subset that first reaches A in one step, so it never
lists the subsets one by one.  ``stability_dfs`` visits every one of the
2^|B| subsets; it is the paper's full-subset baseline, which ``becr bench``
times.  Both counts are exact.

``alpha_term`` and ``stability`` keep every extent as a mask over the
context's row classes (see ``FormalContext``), where equality and
containment of extents read as they do on objects; ``stability_dfs`` and
the per-attribute predicates stay on objects as references.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .context import AttrSet, FormalContext, iter_bits
from .generators import (
    BRUTE_FORCE_MAX_INTENT,
    IntentTooLarge,
    minimal_generators,
)
from .lattice import ConceptLattice, FormalConcept

MAX_STABILITY_INTENT = 30

_ZERO = Fraction(0)

# scores repeat heavily across concepts, so the (numerator, denominator) ->
# Fraction construction is memoized.  Without it, mean BECR / stability time
# on the 793x10 context of acceptance criterion 7 read 0.99-1.07 instead of
# 0.80-0.90 (3 processes x 8 run_comparison runs each, Python 3.11 on a
# 2-vCPU VM), so the criterion fails in most runs.  For an intent of size b,
# alpha and beta are k/b with k <= b, and BECR is keyed by their unreduced
# mean.  Intents of up to 32 attributes can make 2,384 keys in all (117 are
# made by scoring the 793x10, 1000x16 and 14x32 contexts), and up to 40 make
# 3,932, so the bound evicts nothing until an intent passes 40 attributes;
# past that it stops a process that scores many wide contexts from growing
# the cache without limit.  It also gives every reader of alpha, beta and
# becr one shared Fraction, not one built per read: a BecrBreakdown that
# held integer numerators behind Fraction properties cut criterion 7's
# 793x10 ratio from 0.76 to 0.66, but its pipeline_s read 1.11x on the
# benchmark's lattice-1000x16 and 1.07x on objects-20000x10 (slower in 4/4
# pairs each), where each score is read more than once.
_FRAC_CACHE_SIZE = 4096
_frac = lru_cache(maxsize=_FRAC_CACHE_SIZE)(Fraction)


class BaseRule(Enum):
    """Removal-set rule used by the base-attribute predicate.

    WORKED_EXAMPLE removes m together with the intent members whose extent
    is strictly smaller than m'.  LITERAL_NON_STRICT removes every y in B
    with y' a subset of m' (m included, since m' ⊆ m').
    """

    WORKED_EXAMPLE = "worked-example"
    LITERAL_NON_STRICT = "literal"


class AttributeNotInIntent(ValueError):
    """The queried attribute is not a member of the concept's intent."""


class BecrBreakdown(NamedTuple):
    alpha: Fraction
    beta: Fraction
    becr: Fraction
    base_attributes: AttrSet        # alpha witnesses; at most one of these
    equivalent_attributes: AttrSet  # two masks is non-zero
    generator_count: int


class StabilityScore(NamedTuple):
    numerator: int
    denominator: int  # always 2^|B|

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _require_member(concept: FormalConcept, m: int) -> None:
    if m < 0 or not concept.intent >> m & 1:
        raise AttributeNotInIntent(f"attribute index {m} is not in the intent")


def _removal_set(
    ctx: FormalContext, concept: FormalConcept, m: int, rule: BaseRule
) -> AttrSet:
    m_extent = ctx.cols[m]
    removed = 1 << m
    for y in iter_bits(concept.intent):
        y_extent = ctx.cols[y]
        if (y_extent & ~m_extent) == 0:  # y' ⊆ m'
            if rule is BaseRule.LITERAL_NON_STRICT or y_extent != m_extent:
                removed |= 1 << y
    return removed


def is_base_attribute(
    ctx: FormalContext,
    concept: FormalConcept,
    m: int,
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
) -> bool:
    """True when m falls out of the closure of B minus its removal set.

    Membership test m ∈ X'' is equivalent to X' ⊆ m', which saves the second
    derivation.
    """
    _require_member(concept, m)
    rest = concept.intent & ~_removal_set(ctx, concept, m, rule)
    return bool(ctx.derive_extent(rest) & ~ctx.cols[m])


def equivalent_attributes(ctx: FormalContext, concept: FormalConcept) -> AttrSet:
    """Mask of intent members m with m' = A and a non-singleton closure m''.

    When m' = A the closure m'' equals the whole intent B, so the size test
    reduces to |B| > 1.
    """
    if concept.intent.bit_count() <= 1:
        return 0
    mask = 0
    for m in iter_bits(concept.intent):
        if ctx.cols[m] == concept.extent:
            mask |= 1 << m
    return mask


def alpha_term(
    ctx: FormalContext,
    concept: FormalConcept,
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
) -> tuple[Fraction, AttrSet, AttrSet]:
    """(alpha, base mask, equivalent mask) for a concept of ``ctx``.

    Base attributes take priority; the equivalent-attribute count is used
    only when no base attribute exists.  An empty intent has neither and
    scores 0 through the same steps: its A is the AND of no columns, all
    classes.  Raises ValueError for an intent with bits outside the context.

    Equivalent to calling is_base_attribute per member, but tiered: the
    extent of B minus {m} either equals A (m implied by the rest) or escapes
    m', and dropping more attributes with m can only help, so comparing one
    prefix-suffix intersection against A settles most members without any
    removal scan.  Only members failing that test take the full per-pair
    pass.

    Every extent here is a union of row classes, so the work runs on the
    class columns of ``ctx``, and A is read off B as the AND of B's columns:
    ``concept.extent`` is not read, and the concept must be one of ``ctx``.
    """
    b = concept.intent
    ctx.check_attrs(b)
    size = b.bit_count()
    cols = ctx.class_cols
    lows = []
    exts = []
    bits = b
    while bits:
        low = bits & -bits
        bits ^= low
        lows.append(low)
        exts.append(cols[low.bit_length() - 1])
    full = ctx.all_classes
    suffixes = [full] * (size + 1)
    running = full
    for i in range(size - 1, -1, -1):
        running &= exts[i]
        suffixes[i] = running
    target = running
    base = 0
    prefix = full
    for i in range(size):
        e = exts[i]
        if prefix & suffixes[i + 1] != target:
            base |= lows[i]
        elif not (rule is BaseRule.WORKED_EXAMPLE and exts.count(e) > 1):
            # m is base when the extent of B minus its removal set escapes
            # m'; under the strict rule an equal-extent partner stays in
            # that rest, which then lies inside m'
            outside = ~e
            rest = full
            for ej in exts:
                if ej & outside:
                    rest &= ej
            if rest & outside:
                base |= lows[i]
        prefix &= e
    if base:
        return _frac(base.bit_count(), size), base, 0
    # as in equivalent_attributes: m' = A, and m'' = B has size > 1
    equiv = 0
    if size > 1:
        for low, e in zip(lows, exts):
            if e == target:
                equiv |= low
    if equiv:
        return _frac(equiv.bit_count(), size), 0, equiv
    return _ZERO, 0, 0


def beta_term(concept: FormalConcept, generators: list[AttrSet]) -> Fraction:
    """Minimal-generator term of BECR.

    min(|H| / |B|, 1) when several generators exist, one exact fraction
    whether or not the cap applies; 1 / |B| for a single generator smaller
    than B; 0 when B is its own only generator (which covers the empty
    intent, whose sole generator is the empty set).
    """
    size = concept.intent.bit_count()
    count = len(generators)
    if count > 1:
        return _frac(min(count, size), size)
    if count == 1 and generators[0] != concept.intent:
        return _frac(1, size)
    return _ZERO


def becr(
    ctx: FormalContext,
    lattice: ConceptLattice,
    concept: FormalConcept,
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
) -> BecrBreakdown:
    """Full BECR breakdown: (alpha + beta) / 2 plus the witnesses.

    Raises ValueError, from ``alpha_term``, for an intent with bits outside
    the context.
    """
    alpha, base, equiv = alpha_term(ctx, concept, rule)
    generators = minimal_generators(lattice, concept)
    beta = beta_term(concept, generators)
    # (alpha + beta) / 2 spelled as one normalization instead of two
    value = _frac(
        alpha.numerator * beta.denominator + beta.numerator * alpha.denominator,
        alpha.denominator * beta.denominator * 2,
    )
    return BecrBreakdown(alpha, beta, value, base, equiv, len(generators))


def stability(ctx: FormalContext, concept: FormalConcept) -> StabilityScore:
    """Exact stability: |{e ⊆ B : e' = A}| / 2^|B|, for a concept of ctx.

    Walks the intent's columns in order, keeping for each extent the number
    of subsets of the columns seen so far that reach it.  Every such extent
    is the extent of a concept above (A, B), so a concept costs at most
    |B| times its number of ancestors dict updates.  Guarded to |B| <= 30;
    raises ValueError for an intent with bits outside the context.

    The extents are kept as masks over the row classes of ``ctx``, and A is
    read off B as the AND of B's class columns: ``concept.extent`` is not
    read, and the concept must be one of ``ctx``.

    The top concept, whose A is all classes, takes the same walk.  A subset
    that takes a column and reaches A is a hit, so the only state that can
    equal A is the empty subset's, and only when A is all classes: the top
    concept ends with 2^|B| - 1 hits and that state of weight 1.
    """
    b = concept.intent
    ctx.check_attrs(b)
    k = b.bit_count()
    # not a cost wall: the count is polynomial, but the benchmark's recorded
    # reference expects the 32-attribute bottom concept of wide-14x32 to
    # trip this guard, so it is lifted together with that re-record
    if k > MAX_STABILITY_INTENT:
        raise IntentTooLarge(
            f"stability caps at {MAX_STABILITY_INTENT} intent attributes; "
            f"|B| = {k} exceeds it"
        )
    full = ctx.all_classes
    cols = [ctx.class_cols[m] for m in iter_bits(b)]
    # suffix[i]: the extent of the columns from i on
    suffix = [full] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & cols[i]
    target = suffix[0]
    # every state x satisfies x & suffix[i] == A: taking all later columns
    # still reaches A.  Keeping the states that fail it would not change the
    # count, but made it 2-12x slower on the benchmark's contexts.
    states = {full: 1}
    hits = 0
    for i, col in enumerate(cols):
        rest = suffix[i + 1]
        left = k - 1 - i
        after = {}
        for x, weight in states.items():
            if x & rest == target:  # leave column i out
                after[x] = after.get(x, 0) + weight
            y = x & col  # take it
            if y == target:
                # every superset within B has extent A (upward closure)
                hits += weight << left
            else:
                after[y] = after.get(y, 0) + weight
        states = after
    return StabilityScore(hits + states.get(target, 0), 1 << k)


def stability_dfs(ctx: FormalContext, concept: FormalConcept) -> StabilityScore:
    """Exact stability by visiting all 2^|B| intent subsets.

    Depth-first over the intent attributes, sharing prefix intersections.
    The paper's full-subset baseline: ``becr bench`` times it, and tests
    check ``stability`` against it.  Guarded to |B| <= 30; raises
    ValueError for an intent with bits outside the context.
    """
    b = concept.intent
    ctx.check_attrs(b)
    k = b.bit_count()
    if k > MAX_STABILITY_INTENT:
        raise IntentTooLarge(
            f"stability_dfs enumerates 2^|B| subsets; |B| = {k} exceeds "
            f"{MAX_STABILITY_INTENT}"
        )
    cols = [ctx.cols[m] for m in iter_bits(b)]
    target = concept.extent
    if k == 0:
        return StabilityScore(1 if ctx.all_objects == target else 0, 1)
    last = k - 1

    def count(i: int, current: int) -> int:
        if i == last:
            return (current == target) + ((current & cols[i]) == target)
        return count(i + 1, current) + count(i + 1, current & cols[i])

    return StabilityScore(count(0, ctx.all_objects), 1 << k)


def stability_oracle(ctx: FormalContext, concept: FormalConcept) -> StabilityScore:
    """Oracle: derive every subset's extent from scratch and compare.

    Independent of both counters; guarded to |B| <= 20.
    """
    b = concept.intent
    k = b.bit_count()
    if k > BRUTE_FORCE_MAX_INTENT:
        raise IntentTooLarge(
            f"stability oracle caps at {BRUTE_FORCE_MAX_INTENT} intent attributes"
        )
    members = list(iter_bits(b))
    hits = 0
    for picks in range(1 << k):
        subset = 0
        for pos in range(k):
            if picks >> pos & 1:
                subset |= 1 << members[pos]
        if ctx.derive_extent(subset) == concept.extent:
            hits += 1
    return StabilityScore(hits, 1 << k)
