"""Appraisal-based salience, ranking, and explanation engine.

The pipeline: build a unified context from a user profile and query, score
how salient each of six appraisal dimensions is for that context, rank
candidate items by salience-weighted per-dimension alignment, and realize an
explanation that justifies the winner in appraisal terms, with a
non-appraisal baseline available for contrast.

No record is a ``@dataclass``, and nothing on the import path loads the
dataclass module, which brings ``inspect`` and ``ast`` with it, so importing
the engine stays cheap. Each record is a ``typing.NamedTuple``, or a plain
class with an explicit ``__init__`` when it validates, normalizes or caches.
"""

__version__ = "0.1.0"

from .context import (
    Query,
    SentimentTally,
    UnifiedContext,
    UserProfile,
    build_unified_context,
    parse_time_constraint,
    tally_sentiment,
    tokenize,
)
from .explanation import (
    ComparisonReport,
    DimensionFinding,
    ExplanationPlan,
    PromptBundle,
    build_plan,
    build_prompt,
    compare,
    load_prompt_templates,
    realize_baseline_template,
    realize_llm,
    realize_template,
)
from .lexicons import Lexicons, load_lexicons
from .registry import (
    Dimension,
    DimensionInfo,
    Registry,
    load_registry,
)
from .salience import (
    SalienceProfile,
    compute_salience,
    dominant_dimensions,
    lexical_salience,
    normalize,
    remote_entailment_salience,
)
from .scoring import (
    AppraisalVector,
    Candidate,
    RankedEntry,
    RankedList,
    appraisal_vector,
    composite_score,
    rank_candidates,
    rank_vectors,
)

__all__ = [
    "AppraisalVector",
    "Candidate",
    "ComparisonReport",
    "Dimension",
    "DimensionFinding",
    "DimensionInfo",
    "ExplanationPlan",
    "Lexicons",
    "PromptBundle",
    "Query",
    "RankedEntry",
    "RankedList",
    "Registry",
    "SalienceProfile",
    "SentimentTally",
    "UnifiedContext",
    "UserProfile",
    "appraisal_vector",
    "build_plan",
    "build_prompt",
    "build_unified_context",
    "compare",
    "composite_score",
    "compute_salience",
    "dominant_dimensions",
    "lexical_salience",
    "load_lexicons",
    "load_prompt_templates",
    "load_registry",
    "normalize",
    "parse_time_constraint",
    "rank_candidates",
    "rank_vectors",
    "realize_baseline_template",
    "realize_llm",
    "realize_template",
    "remote_entailment_salience",
    "tally_sentiment",
    "tokenize",
]
