"""Partitioning a POI collection into shards.

A partitioner splits a :class:`~repro.datasets.POICollection` into ``S``
disjoint, covering id sets and summarizes each with the two statistics the
router prunes and ranks by: the shard's MBR (for the sector-intersection
test and ``MINDIST`` ordering) and its per-keyword document frequencies
(for keyword pruning and the ``MINDIST`` tie-break).  Three strategies:

``grid``
    Equi-depth spatial tiling (sort-tile-recursive): POIs are sorted by x
    into ``C ~ sqrt(S)`` columns of near-equal population, each column
    sorted by y and cut into rows.  Shards are compact rectangles of
    near-equal size — the workload-aware sizing WISK argues for, in its
    simplest data-driven form — so a query sector overlaps few of them.
``angular``
    Equi-depth angular bands around the dataset centroid.  Each shard owns
    a wedge of directions, which is maximally synergistic with *narrow*
    direction intervals for queries near the data's center of mass — the
    cluster-level analogue of the paper's direction wedges, and the spirit
    of QDR-Tree's direction-aware clustering.
``hash``
    ``poi_id mod S`` — the locality-free control.  Every shard's MBR is
    nearly the dataset MBR, so sector pruning almost never fires; benches
    use it to show what spatial partitioning buys.

All partitioners are deterministic, and every shard's id list is sorted
ascending.  That ordering is load-bearing: :class:`~repro.datasets.
POICollection` renumbers POIs densely on construction, and a sorted id
list makes each shard's local id order agree with global id order, so
per-shard top-k tie-breaking (by distance, then id) matches what the
unsharded index would do — the cornerstone of exact scatter-gather
equivalence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..datasets import POI, POICollection
from ..geometry import MBR, Point

#: A partitioner assigns every global POI id to exactly one of S shards.
AssignFn = Callable[[POICollection, int], List[List[int]]]


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity and routing statistics."""

    shard_id: int
    #: Global POI ids owned by this shard, sorted ascending (see module
    #: docstring for why the ordering matters).
    global_ids: Tuple[int, ...]
    #: Smallest rectangle containing every member POI.
    mbr: MBR
    #: keyword -> number of member POIs containing it.
    keyword_df: Dict[str, int]

    def __len__(self) -> int:
        return len(self.global_ids)

    def may_match_keywords(self, keywords, require_all: bool) -> bool:
        """Can any member POI satisfy the keyword predicate?

        Document frequencies make this exact as a *negative* test: a
        conjunctive query with any zero-frequency keyword, or a
        disjunctive query with all-zero frequencies, provably has no
        answers here.
        """
        if require_all:
            return all(self.keyword_df.get(k, 0) > 0 for k in keywords)
        return any(self.keyword_df.get(k, 0) > 0 for k in keywords)


@dataclass(frozen=True)
class ClusterLayout:
    """A complete, validated partition of a collection into shards."""

    partitioner: str
    num_pois: int
    shards: Tuple[ShardSpec, ...]

    @property
    def num_shards(self) -> int:
        """Number of shards in the layout."""
        return len(self.shards)

    def to_meta(self) -> dict:
        """JSON-serializable form for the cluster manifest (persistence).

        MBRs and document frequencies are derivable from the shard
        collections at load time; only the identity needs storing.
        """
        return {
            "partitioner": self.partitioner,
            "num_pois": self.num_pois,
            "shard_global_ids": [list(s.global_ids) for s in self.shards],
        }


def _chunk_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous near-equal runs."""
    bounds = []
    start = 0
    for part in range(parts):
        size = total // parts + (1 if part < total % parts else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def grid_assign(collection: POICollection, num_shards: int) -> List[List[int]]:
    """Equi-depth spatial tiling (sort-tile-recursive, STR packing)."""
    ids = sorted(range(len(collection)),
                 key=lambda i: (collection.location(i).x,
                                collection.location(i).y, i))
    num_cols = max(1, round(math.sqrt(num_shards)))
    # Distribute the S tiles over the columns (rows may differ by one).
    rows_per_col = [num_shards // num_cols
                    + (1 if c < num_shards % num_cols else 0)
                    for c in range(num_cols)]
    rows_per_col = [r for r in rows_per_col if r > 0]
    shards: List[List[int]] = []
    cursor = 0
    remaining = len(ids)
    remaining_tiles = num_shards
    for rows in rows_per_col:
        # Column population proportional to its tile count keeps every
        # tile near n/S POIs even when rows differ across columns.
        col_size = round(remaining * rows / remaining_tiles)
        column = ids[cursor:cursor + col_size]
        cursor += col_size
        remaining -= col_size
        remaining_tiles -= rows
        column.sort(key=lambda i: (collection.location(i).y,
                                   collection.location(i).x, i))
        for lo, hi in _chunk_bounds(len(column), rows):
            shards.append(column[lo:hi])
    return shards


def angular_assign(collection: POICollection,
                   num_shards: int) -> List[List[int]]:
    """Equi-depth angular bands around the dataset centroid."""
    n = len(collection)
    cx = sum(collection.location(i).x for i in range(n)) / n
    cy = sum(collection.location(i).y for i in range(n)) / n
    centroid = Point(cx, cy)

    def angle_key(poi_id: int) -> Tuple[float, int]:
        location = collection.location(poi_id)
        if location.coincides(centroid):
            return (0.0, poi_id)  # the centroid itself has no direction
        return (centroid.direction_to(location), poi_id)

    ids = sorted(range(n), key=angle_key)
    return [ids[lo:hi] for lo, hi in _chunk_bounds(n, num_shards)]


def hash_assign(collection: POICollection,
                num_shards: int) -> List[List[int]]:
    """``poi_id mod S`` — the no-spatial-locality control."""
    shards: List[List[int]] = [[] for _ in range(num_shards)]
    for poi_id in range(len(collection)):
        shards[poi_id % num_shards].append(poi_id)
    return shards


PARTITIONERS: Dict[str, AssignFn] = {
    "grid": grid_assign,
    "angular": angular_assign,
    "hash": hash_assign,
}


def build_layout(collection: POICollection, num_shards: int,
                 partitioner: str = "grid") -> ClusterLayout:
    """Partition ``collection`` and derive each shard's routing stats.

    Validates that the assignment is a true partition (every id exactly
    once, no empty shard) before trusting it.
    """
    try:
        assign = PARTITIONERS[partitioner]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; expected one of "
            f"{sorted(PARTITIONERS)}") from None
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive: {num_shards}")
    if num_shards > len(collection):
        raise ValueError(
            f"cannot split {len(collection)} POIs into {num_shards} "
            "non-empty shards")
    assignment = assign(collection, num_shards)
    _validate_assignment(assignment, len(collection), num_shards)
    specs: List[ShardSpec] = []
    for shard_id, members in enumerate(assignment):
        ids = tuple(sorted(members))
        mbr = MBR.from_points(collection.location(i) for i in ids)
        df: Counter = Counter()
        for poi_id in ids:
            df.update(collection[poi_id].keywords)
        specs.append(ShardSpec(shard_id, ids, mbr, dict(df)))
    return ClusterLayout(partitioner, len(collection), tuple(specs))


def shard_collection(collection: POICollection,
                     spec: ShardSpec) -> POICollection:
    """The shard's POIs as a standalone collection (ids renumbered).

    Members are emitted in ascending global id order, so local id ``j``
    maps to ``spec.global_ids[j]`` — the bridge the router uses to return
    global answers.
    """
    return POICollection([
        POI(poi_id, collection[g].location, collection[g].keywords)
        for poi_id, g in enumerate(spec.global_ids)
    ])


def _validate_assignment(assignment: Sequence[Sequence[int]], num_pois: int,
                         num_shards: int) -> None:
    if len(assignment) != num_shards:
        raise ValueError(
            f"partitioner produced {len(assignment)} shards, not "
            f"{num_shards}")
    seen: set = set()
    total = 0
    for shard_id, members in enumerate(assignment):
        if not members:
            raise ValueError(f"shard {shard_id} is empty")
        total += len(members)
        seen.update(members)
    if total != num_pois or seen != set(range(num_pois)):
        raise ValueError(
            "partitioner output is not a partition of the collection "
            f"({total} assignments over {len(seen)} distinct ids for "
            f"{num_pois} POIs)")
