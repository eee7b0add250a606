"""Query-workload generators matching the paper's experimental setup."""

from .workloads import generate_queries, paper_query_mix, repeated_stream

__all__ = [
    "generate_queries",
    "paper_query_mix",
    "repeated_stream",
]
