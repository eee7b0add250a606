"""DESKS: Direction-Aware Spatial Keyword Search — full reproduction.

Reproduces Li, Feng & Xu, *DESKS: Direction-Aware Spatial Keyword Search*
(ICDE 2012): the direction-aware band/sub-region index, its pruning lemmas
and search algorithms, the incremental direction-update algorithms, and the
baselines the paper compares against (filter-and-verify R-tree, MIR2-tree,
IR-tree/LkT) — all on a simulated-disk storage substrate.

Quickstart::

    from repro import DesksIndex, DesksSearcher, DirectionalQuery
    from repro.datasets import load_preset

    pois = load_preset("CA", scale=1000)
    index = DesksIndex(pois)
    searcher = DesksSearcher(index)
    query = DirectionalQuery.make(x=5000, y=5000, alpha=0.0, beta=1.0472,
                                  keywords=["chinese", "food"], k=10)
    for entry in searcher.search(query):
        print(entry.poi_id, entry.distance)
"""

from .core import (
    CardinalityEstimator,
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    IncrementalSearcher,
    MatchMode,
    MutableDesksIndex,
    PruningMode,
    QueryResult,
    ResultEntry,
    brute_force_search,
    load_index,
    save_index,
)
from .cluster import ShardRouter
from .datasets import POI, POICollection
from .geometry import DirectionInterval, Point
from .service import (
    Deadline,
    MetricsRegistry,
    QueryEngine,
    ResultCache,
    ServiceResponse,
)
from .trace import ExplainReport, TraceSink, Tracer, explain

__version__ = "1.0.0"

__all__ = [
    "CardinalityEstimator",
    "Deadline",
    "DesksIndex",
    "DesksSearcher",
    "DirectionInterval",
    "DirectionalQuery",
    "ExplainReport",
    "IncrementalSearcher",
    "MatchMode",
    "MetricsRegistry",
    "MutableDesksIndex",
    "POI",
    "POICollection",
    "Point",
    "PruningMode",
    "QueryEngine",
    "QueryResult",
    "ResultCache",
    "ResultEntry",
    "ServiceResponse",
    "ShardRouter",
    "TraceSink",
    "Tracer",
    "brute_force_search",
    "explain",
    "load_index",
    "save_index",
    "__version__",
]
