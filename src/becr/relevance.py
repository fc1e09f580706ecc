"""Per-concept relevance scores: the BECR index and extensional stability.

All scores are carried as exact ``fractions.Fraction`` values; callers
convert to float at output boundaries only.

BECR of a concept (A, B) is the mean of two terms, both read off the
minimal-generator family H of B, which ``becr`` computes once.  The alpha
term counts base attributes of B (attributes whose removal, together with
their removal set, changes the closure) or, when there are none, attributes
equivalent on the concept (m' = A with a non-singleton closure).  Every
member of ∩H is base, so only the other members are tested, and B's
columns are read only when there are such members.  The beta term
rates H itself: several generators score min(|H| / |B|, 1), a single proper
generator scores 1 / |B|, and H = {B} scores 0.

Stability is the fraction of intent subsets whose extent equals A.  The
subsets that qualify are closed upwards in B (e ⊆ f ⊆ B and e' = A give
A = B' ⊆ f' ⊆ e' = A), and each holds F = ∩H, the members m whose removal
from B escapes A.  ``stability`` reads F off B's columns alone, with one
forward pass that pairs each column with the extent of the columns before
it and one backward pass over those pairs with a running suffix; it needs
no lattice.  It then starts from F' and walks the free columns once,
merging the subsets chosen so far by their extent and dropping those that
cannot reach A, a test that reads the prefix extent paired with each
column.  A is carried like any other extent: every later column keeps it
whether taken or left out, so its weight doubles per column, and the
subsets are never listed one by one.  When F' = A (F is then the one
minimal generator) the walk holds A alone and counts 2^(|B| - |F|).
Past the two passes a concept costs at most |B - F| times its number of
ancestors inside F', itself included, dict updates.
``stability_dfs`` visits every one of the 2^|B|
subsets; it is the paper's full-subset baseline, which ``becr bench`` times.
Both counts are exact.

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
    generator_family,
)
from .lattice import ConceptLattice, FormalConcept

MAX_STABILITY_INTENT = 30

_ZERO = Fraction(0)

# scores repeat heavily across concepts, so the (numerator, denominator) ->
# Fraction construction is memoized.  With plain Fraction in its place, mean
# BECR / stability time on the 793x10 context of acceptance criterion 7
# read 0.87-0.88 instead of 0.68-0.71 (4 processes x 3 run_comparison runs,
# alternating the two), and the benchmark's pipelines ran 1.11x as long on
# paper-793x10-timed, 1.06x on lattice-1000x16, 1.03x on objects-20000x10
# and 1.02x on wide-14x32 (median ratios of 30 alternating in-process runs;
# Python 3.11 on a shared 2-vCPU VM).  For an intent of size b,
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
    if type(rule) is not BaseRule:
        raise ValueError(f"rule {rule!r} is not a BaseRule member")
    m_extent = ctx.cols[m]
    removed = 1 << m
    for y in iter_bits(concept.intent):
        y_extent = ctx.cols[y]
        if (y_extent & ~m_extent) == 0:  # y' ⊆ m'
            if rule is not BaseRule.WORKED_EXAMPLE or y_extent != m_extent:
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
    derivation.  Raises ValueError for an intent outside ``ctx``, or for a
    rule that is not a BaseRule member.
    """
    ctx.check_attrs(concept.intent)
    _require_member(concept, m)
    rest = concept.intent & ~_removal_set(ctx, concept, m, rule)
    return bool(ctx.derive_extent(rest) & ~ctx.cols[m])


def equivalent_attributes(ctx: FormalContext, concept: FormalConcept) -> AttrSet:
    """Mask of intent members m with m' = A and a non-singleton closure m''.

    When m' = A the closure m'' equals the whole intent B, so the size test
    reduces to |B| > 1.  Raises ValueError for an intent outside ``ctx``.
    """
    ctx.check_attrs(concept.intent)
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
    generators: list[AttrSet],
    rule: BaseRule = BaseRule.WORKED_EXAMPLE,
) -> tuple[Fraction, AttrSet, AttrSet]:
    """(alpha, base mask, equivalent mask) for a concept of ``ctx``.

    ``generators`` is the concept's minimal-generator family H in any
    order, as from ``generator_family``.  Base attributes take priority; the
    equivalent-attribute count is used only when no base attribute exists.
    An empty intent has neither and scores 0 through the same steps: its
    ∩H is B, so no member is tested and none is base.  Raises ValueError for an
    intent with bits outside the context, and for a rule that is not a
    BaseRule member (its value string included).

    Equivalent to calling is_base_attribute per member.  A member m that
    every minimal generator holds is base: B minus {m} is then no
    generator, so its extent is larger than A and escapes m', and dropping
    more attributes with m only grows it.  The base mask starts as the AND
    of H, and only the other members take the per-pair removal-set pass.

    B's columns are read only when a member lies outside ∩H: once, into one
    list that the removal-set tests read and, when no member is base, the
    equivalent tier too, which reads A off it as the AND of B's columns.
    When ∩H = B, alpha is |B| / |B| and no column is read (95% of the
    concepts of coin-toss 793x10, 14% of 14x32).  Every extent here is a
    union of row classes, so the columns are those of the classes of
    ``ctx``: ``concept.extent`` is not read, and the concept must be one of
    ``ctx``.
    """
    b = concept.intent
    ctx.check_attrs(b)
    # identity tests only: this runs once per timed BECR call
    if type(rule) is not BaseRule:
        raise ValueError(f"rule {rule!r} is not a BaseRule member")
    size = b.bit_count()
    base = b
    for g in generators:
        base &= g
    if base != b:
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
        for low, e in zip(lows, exts):
            if low & base or (rule is BaseRule.WORKED_EXAMPLE
                              and exts.count(e) > 1):
                continue
            # m is base when the extent of B minus its removal set escapes
            # m'; under the strict rule an equal-extent partner stays in
            # that rest, which then lies inside m', so such an m was skipped
            # above
            outside = ~e
            rest = full
            for ej in exts:
                if ej & outside:
                    rest &= ej
            if rest & outside:
                base |= low
        # as in equivalent_attributes: m' = A, and m'' = B has size > 1
        if not base and size > 1:
            target = full
            for e in exts:
                target &= e
            equiv = 0
            for low, e in zip(lows, exts):
                if e == target:
                    equiv |= low
            if equiv:
                return _frac(equiv.bit_count(), size), 0, equiv
    if base:
        return _frac(base.bit_count(), size), base, 0
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

    The minimal-generator family is computed once, in ``generator_family``'s
    search order, and read by both terms, which only AND it and count it.
    Raises ValueError for an intent with bits outside the context, before
    the lattice is searched for the concept, and (from ``alpha_term``) for
    a rule that is not a BaseRule member.
    """
    ctx.check_attrs(concept.intent)
    generators = generator_family(lattice, concept)
    alpha, base, equiv = alpha_term(ctx, concept, generators, rule)
    beta = beta_term(concept, generators)
    # (alpha + beta) / 2 spelled as one normalization instead of two
    value = _frac(
        alpha.numerator * beta.denominator + beta.numerator * alpha.denominator,
        alpha.denominator * beta.denominator * 2,
    )
    return BecrBreakdown(alpha, beta, value, base, equiv, len(generators))


def stability(ctx: FormalContext, concept: FormalConcept) -> StabilityScore:
    """Exact stability: |{e ⊆ B : e' = A}| / 2^|B|, for a concept of ctx.

    A subset qualifies exactly when it holds a minimal generator of B, so
    every qualifying subset holds F = ∩H, the members m for which B minus
    {m} escapes A.  One forward pass over B's columns lists, per member i,
    the pair (prefix_i, column i), where prefix_i is the extent of the
    columns before i; the AND of all of B's columns is A.  One backward
    pass over the pairs with a running suffix finds F, since B minus the
    i-th member has extent prefix_i & suffix_i+1.  No lattice and no family
    are needed.  The count starts from F' and walks the free columns (those
    outside F), last first, keeping for each extent the number of subsets
    of the free columns seen so far that reach it.  Each such extent is
    that of (A, B) or of an ancestor of it that lies inside F', so past the
    two passes a concept costs at most |B - F| times the number of those
    ancestors, itself included, dict updates.  Guarded to |B| <= 30; raises
    ValueError for an intent with bits outside the context.

    The extents are kept as masks over the row classes of ``ctx``, and A is
    read off B as the AND of B's class columns: ``concept.extent`` is not
    read, and the concept must be one of ``ctx``.

    A is a state like any other.  Every column of B contains A, so once a
    subset reaches A both branches of each later column keep it there and
    its weight doubles: the subsets that qualify are closed upwards in B.
    After the last free column the weight of A is the count.  When F' = A,
    F is the only minimal generator: the walk holds A alone and counts
    2^(|B| - |F|), and H = {B} gives 1.  A state that cannot reach A any
    more is dropped.  The columns still to come are the free ones before
    column i, and every state lies inside each column of F, so the prune
    reads prefix_i, the extent paired with column i.
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
    full = target = ctx.all_classes
    class_cols = ctx.class_cols
    # one (extent of the columns before i, column i) per member i of B
    steps = []
    bits = b
    # not iter_bits: its generator made this stage 1.2x as long on the
    # benchmark's 1000x16 context
    while bits:
        low = bits & -bits
        bits ^= low
        col = class_cols[low.bit_length() - 1]
        steps.append((target, col))
        target &= col
    # member i lies in every minimal generator (in F = ∩H) when B minus it
    # escapes A; start is F', the others are free, collected last first
    start = suffix = full
    free = []
    for rest, col in reversed(steps):
        if rest & suffix == target:
            free.append((rest, col))
        else:
            start &= col
        suffix &= col
    # every state x lies inside F' and satisfies x & rest == A: taking all
    # the free columns still to come reaches A.  Keeping the states that
    # fail it would not change the count, but made the walk over all of B
    # 2-12x slower on the benchmark's contexts.
    states = {start: 1}
    for rest, col in free:
        after = {}
        for x, weight in states.items():
            if x & rest == target:  # leave the column out
                after[x] = after.get(x, 0) + weight
            y = x & col  # take it
            after[y] = after.get(y, 0) + weight
        states = after
    return StabilityScore(states[target], 1 << k)


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
