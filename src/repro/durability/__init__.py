"""Crash-safe storage for DESKS: WAL-fronted mutable indexes, checkpoints,
recovery and scrubbing.

The chaos harness that proves them (crash failpoints, page corruption,
randomized trials) is ``benchmarks/chaos_durability.py``, outside the
package.
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
