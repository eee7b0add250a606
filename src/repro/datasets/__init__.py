"""POI datasets: model, synthetic generators, CSV persistence, statistics."""

from .loaders import load_csv, save_csv
from .poi import POI, POICollection, check_finite
from .stats import DatasetStats, dataset_statistics, format_table2
from .synthetic import (
    CATEGORY_TERMS,
    SyntheticConfig,
    california_like,
    china_like,
    generate,
    load_preset,
    virginia_like,
)

__all__ = [
    "CATEGORY_TERMS",
    "DatasetStats",
    "POI",
    "POICollection",
    "SyntheticConfig",
    "california_like",
    "check_finite",
    "china_like",
    "dataset_statistics",
    "format_table2",
    "generate",
    "load_csv",
    "load_preset",
    "save_csv",
    "virginia_like",
]
