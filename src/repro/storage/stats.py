"""I/O accounting for the simulated disk.

The paper evaluates disk-based indexes; in a pure-Python reproduction, wall
time alone under-reports the asymptotic story (Python overhead dwarfs a
simulated seek).  Every page access therefore flows through an
:class:`IOStats` so benchmarks can report logical page reads/writes alongside
wall time.  Every integrity check (pages, saved files, WAL) returns the
one :class:`ScrubReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Mutable counters for logical page-level I/O.

    ``physical_reads`` count pages actually fetched from the backing store;
    ``cache_hits`` count pages served by the buffer pool.  The sum of the two
    equals the number of logical page requests.

    The durability layer adds three counters: ``fsyncs`` (how many times a
    log or page file was forced to stable storage — the quantity that bounds
    how much work a crash can lose), ``wal_appends`` and ``wal_bytes``
    (write-ahead-log traffic, the mutation path's durability overhead).
    """

    physical_reads: int = 0
    physical_writes: int = 0
    cache_hits: int = 0
    fsyncs: int = 0
    wal_appends: int = 0
    wal_bytes: int = 0

    def record_read(self, *, hit: bool) -> None:
        """Record one logical page read, served by cache iff ``hit``."""
        if hit:
            self.cache_hits += 1
        else:
            self.physical_reads += 1

    def record_write(self) -> None:
        """Record one physical page write."""
        self.physical_writes += 1

    def record_fsync(self) -> None:
        """Record one fsync-to-stable-storage point."""
        self.fsyncs += 1

    def record_wal_append(self, num_bytes: int) -> None:
        """Record one WAL record append of ``num_bytes`` on-disk bytes."""
        self.wal_appends += 1
        self.wal_bytes += num_bytes

    @property
    def logical_reads(self) -> int:
        """Total page read requests, whether or not they hit the cache."""
        return self.physical_reads + self.cache_hits

    def reset(self) -> None:
        """Zero all counters (used between benchmark phases)."""
        self.physical_reads = 0
        self.physical_writes = 0
        self.cache_hits = 0
        self.fsyncs = 0
        self.wal_appends = 0
        self.wal_bytes = 0

    def snapshot(self) -> "IOSnapshot":
        """An immutable copy of the current counters."""
        return IOSnapshot(self.physical_reads, self.physical_writes,
                          self.cache_hits, self.fsyncs, self.wal_appends,
                          self.wal_bytes)


@dataclass(frozen=True)
class IOSnapshot:
    """Frozen view of :class:`IOStats` counters, for before/after deltas."""

    physical_reads: int = 0
    physical_writes: int = 0
    cache_hits: int = 0
    fsyncs: int = 0
    wal_appends: int = 0
    wal_bytes: int = 0

    @property
    def logical_reads(self) -> int:
        return self.physical_reads + self.cache_hits

    def delta(self, later: "IOSnapshot") -> "IOSnapshot":
        """Counters accumulated between ``self`` and a ``later`` snapshot."""
        return IOSnapshot(
            later.physical_reads - self.physical_reads,
            later.physical_writes - self.physical_writes,
            later.cache_hits - self.cache_hits,
            later.fsyncs - self.fsyncs,
            later.wal_appends - self.wal_appends,
            later.wal_bytes - self.wal_bytes,
        )


@dataclass
class SearchStats:
    """Algorithm-level counters shared by DESKS and the baselines.

    These are the quantities the paper's analysis talks about: how many
    regions / tree nodes were expanded, how many POIs were touched, how many
    distance computations ran.  Each search method fills the fields it has.
    """

    regions_examined: int = 0
    subregions_examined: int = 0
    nodes_examined: int = 0
    pois_examined: int = 0
    distance_computations: int = 0
    candidates_verified: int = 0
    io: IOStats = field(default_factory=IOStats)

    def reset(self) -> None:
        """Zero all counters, including the embedded I/O stats."""
        self.regions_examined = 0
        self.subregions_examined = 0
        self.nodes_examined = 0
        self.pois_examined = 0
        self.distance_computations = 0
        self.candidates_verified = 0
        self.io.reset()


@dataclass
class ScrubReport:
    """Outcome of an integrity pass over pages, saved files or a WAL.

    ``checked`` counts what was verified per unit (``"page"``, ``"file"``,
    ``"wal record"``); ``corrupt`` lists every piece of damage as
    ``(location, reason)`` — the location is a page id within one store,
    else a file path.
    """

    checked: dict[str, int] = field(default_factory=dict)
    corrupt: list[tuple[int | str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def count(self, unit: str, n: int = 1) -> None:
        """Add ``n`` verified units (``n=0`` still names the unit)."""
        self.checked[unit] = self.checked.get(unit, 0) + n

    def merge(self, other: "ScrubReport") -> None:
        """Fold another pass's report into this one."""
        for unit, n in other.checked.items():
            self.count(unit, n)
        self.corrupt.extend(other.corrupt)

    def summary(self) -> str:
        counted = ", ".join(f"{n} {unit}(s)"
                            for unit, n in self.checked.items())
        state = "clean"
        if self.corrupt:
            location, reason = self.corrupt[0]
            where = (f"page {location}" if isinstance(location, int)
                     else location)
            state = f"{len(self.corrupt)} corrupt (first {where}: {reason})"
        return f"scrubbed {counted or 'nothing'}: {state}"
