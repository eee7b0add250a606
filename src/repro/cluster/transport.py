"""The endpoint seam: one query answered by one replica, wherever it runs.

Failover — rotation, health, quarantine, deadline, retry budget — is one
loop, :class:`~repro.cluster.replica.FailoverSet`, and what it drives is a
:class:`ReplicaEndpoint`: :class:`~repro.cluster.replica.EngineEndpoint`
over an in-process :class:`~repro.service.QueryEngine`, or
:class:`~repro.net.SocketEndpoint` over a connection pool to a shard
server.  A future transport (shared memory, RDMA, another serialization)
implements these four methods and inherits the loop.

``call`` reports one attempt as one of three outcomes, and each endpoint
maps its own error types onto them so the loop never inspects those:

* **answered** — it returns a :class:`~repro.service.ServiceResponse` (a
  ``degraded`` one makes the loop quarantine the replica);
* **fatal** — it raises :class:`RequestRejected`: the request itself is at
  fault, so the wrapped error surfaces to the caller at once and no
  replica's health is touched;
* **failed** — it raises anything else: the replica is charged a failure
  and the next one is tried.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from ..core import DirectionalQuery
from ..service import ServiceResponse


class RequestRejected(Exception):
    """An endpoint's *fatal* outcome, wrapping the error to surface."""

    def __init__(self, error: BaseException) -> None:
        self.error = error
        super().__init__(str(error))


@runtime_checkable
class ReplicaEndpoint(Protocol):
    """Answers one query on one replica."""

    def call(self, query: DirectionalQuery,
             budget: Optional[float]) -> ServiceResponse:
        """Execute ``query`` within ``budget`` seconds (``None``: no limit)."""

    def probe(self, timeout: float) -> bool:
        """Out-of-band reachability check; never raises."""

    def describe(self) -> Dict[str, object]:
        """This endpoint's own keys for its ``health_summary`` row."""

    def close(self) -> None:
        """Release the engine, sockets, or whatever the endpoint holds."""
