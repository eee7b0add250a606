"""Crash-safe storage for DESKS: WAL-fronted mutable indexes, checkpoints,
recovery and scrubbing.

The chaos harness that proves them (crash failpoints, page corruption,
randomized trials) is :mod:`repro.durability.chaos`; it is imported by
name from tests and benchmarks and re-exported nowhere.
"""

from .durable import (
    DURABLE_VERSION,
    DurableMutableIndex,
    is_durable_dir,
    scrub_durable,
)

__all__ = [
    "DURABLE_VERSION",
    "DurableMutableIndex",
    "is_durable_dir",
    "scrub_durable",
]
