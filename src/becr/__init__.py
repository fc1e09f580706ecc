"""Concept lattices over binary contexts, scored for relevance.

Builds formal concept lattices from object-attribute incidence data and
scores every concept with the base-equivalent conceptual relevance index
(BECR) and with extensional stability, including a timing/correlation
harness for comparing the two.
"""
from .bench import (
    ComparisonReport,
    LengthMismatch,
    ScoreRow,
    ZeroVariance,
    emit_csv,
    emit_scatter,
    pearson,
    run_comparison,
)
from .context import (
    AttrSet,
    DimensionMismatch,
    EmptyContext,
    FormalContext,
    IllegalCell,
    MalformedHeader,
    MalformedRow,
    NonBinaryCell,
    ObjSet,
    ParseError,
    iter_bits,
    parse_csv,
    parse_cxt,
    parse_fimi,
    serialize_cxt,
)
from .generators import (
    IntentTooLarge,
    brute_force_minimal_generators,
    minimal_generators,
)
from .lattice import (
    ConceptBudgetExceeded,
    ConceptLattice,
    ContextTooLarge,
    FormalConcept,
    brute_force_concepts,
    build_covers,
    concepts_csv,
    enumerate_concepts,
    lectic_key,
)
from .relevance import (
    AttributeNotInIntent,
    BaseRule,
    BecrBreakdown,
    StabilityScore,
    alpha_term,
    becr,
    beta_term,
    equivalent_attributes,
    is_base_attribute,
    stability,
    stability_dfs,
    stability_oracle,
)
from .synth import CoinTossSpec, coin_toss_context

__version__ = "0.1.0"

__all__ = [
    "AttrSet",
    "AttributeNotInIntent",
    "BaseRule",
    "BecrBreakdown",
    "ComparisonReport",
    "ConceptBudgetExceeded",
    "ConceptLattice",
    "ContextTooLarge",
    "CoinTossSpec",
    "DimensionMismatch",
    "EmptyContext",
    "FormalConcept",
    "FormalContext",
    "IllegalCell",
    "IntentTooLarge",
    "LengthMismatch",
    "MalformedHeader",
    "MalformedRow",
    "NonBinaryCell",
    "ObjSet",
    "ParseError",
    "ScoreRow",
    "StabilityScore",
    "ZeroVariance",
    "alpha_term",
    "becr",
    "beta_term",
    "brute_force_concepts",
    "brute_force_minimal_generators",
    "build_covers",
    "coin_toss_context",
    "concepts_csv",
    "emit_csv",
    "emit_scatter",
    "enumerate_concepts",
    "equivalent_attributes",
    "is_base_attribute",
    "iter_bits",
    "lectic_key",
    "minimal_generators",
    "parse_csv",
    "parse_cxt",
    "parse_fimi",
    "pearson",
    "run_comparison",
    "serialize_cxt",
    "stability",
    "stability_dfs",
    "stability_oracle",
]
