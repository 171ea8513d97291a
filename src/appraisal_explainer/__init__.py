"""Appraisal-based salience, ranking, and explanation engine.

The pipeline: build a unified context from a user profile and query, score
how salient each of six appraisal dimensions is for that context, rank
candidate items by salience-weighted per-dimension alignment, and realize an
explanation that justifies the winner in appraisal terms, with a
non-appraisal baseline available for contrast.

The package re-exports only the names that code outside ``tests/`` imports
from it; every other name is imported from its module.

No record is a ``@dataclass``, and nothing on the import path loads the
dataclass module, which brings ``inspect`` and ``ast`` with it, so importing
the engine stays cheap. Each record is a ``typing.NamedTuple``, or a plain
class with an explicit ``__init__`` when it validates, normalizes or caches.
"""

__version__ = "0.1.0"

from .context import build_unified_context, parse_time_constraint
from .lexicons import load_lexicons
from .registry import load_registry
from .salience import compute_salience
from .scoring import rank_candidates

__all__ = [
    "build_unified_context",
    "compute_salience",
    "load_lexicons",
    "load_registry",
    "parse_time_constraint",
    "rank_candidates",
]
