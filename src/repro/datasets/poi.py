"""POI model and the collection type every index consumes.

A POI is the paper's ``p = <(p.x, p.y); p.d>``: a location plus a keyword
set.  :class:`POICollection` interns keywords through a shared
:class:`~repro.text.Vocabulary`, precomputes each POI's term-id set, and
exposes the dataset MBR — the three things every index build needs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import (AbstractSet, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence)

from ..geometry import MBR, Point
from ..text import Vocabulary


@dataclass(frozen=True)
class POI:
    """A point of interest: id, location, keyword set."""

    poi_id: int
    location: Point
    keywords: FrozenSet[str]

    @classmethod
    def make(cls, poi_id: int, x: float, y: float,
             keywords: Iterable[str]) -> "POI":
        """Convenience constructor from raw coordinates."""
        return cls(poi_id, Point(x, y), frozenset(keywords))

    def contains_all(self, keywords: Iterable[str]) -> bool:
        """True when this POI's description contains every given keyword."""
        return set(keywords) <= self.keywords


def check_finite(poi_id: int, x: float, y: float) -> None:
    """Refuse a location with an infinite or NaN coordinate.

    One such POI stretches the dataset MBR to infinity, and every anchor
    frame, band radius and ``MINDIST`` bound derived from it; the searches
    then miss answers silently.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(
            f"POI {poi_id} has a non-finite location ({x!r}, {y!r})")


class POICollection:
    """An immutable, id-addressed set of POIs with interned keywords.

    POI ids are their positions in the collection (dense 0..n-1); loaders
    renumber on ingest so downstream index structures can use plain lists.
    ``xs``/``ys`` (coordinates) and ``term_id_sets`` (interned keyword
    ids) are id-indexed columns of the same POIs, for loops and array
    builds that would otherwise make a method call per POI.
    """

    def __init__(self, pois: Sequence[POI]) -> None:
        if not pois:
            raise ValueError("a POI collection needs at least one POI")
        self._pois: List[POI] = []
        self.vocabulary = Vocabulary()
        self.term_id_sets: List[FrozenSet[int]] = []
        self.xs: List[float] = []
        self.ys: List[float] = []
        self._append(pois)
        self.mbr = MBR.from_points(p.location for p in self._pois)

    def _append(self, pois: Iterable[POI]) -> None:
        """Renumber ``pois`` onto the end, fill their coordinate columns and
        intern their keywords (a POI whose id already is its position is
        kept, not copied).  A non-finite coordinate is a ``ValueError``."""
        for poi in pois:
            position = len(self._pois)
            x, y = poi.location.x, poi.location.y
            check_finite(poi.poi_id, x, y)
            if poi.poi_id != position:
                poi = POI(position, poi.location, poi.keywords)
            self._pois.append(poi)
            self.xs.append(float(x))
            self.ys.append(float(y))
            self.term_id_sets.append(
                self.vocabulary.add_document(poi.keywords))

    def derive(self, deleted: AbstractSet[int],
               appended: Sequence[POI]) -> "POICollection":
        """``POICollection(survivors)``, built from this collection.

        The survivors are this collection's POIs followed by ``appended``
        (whose ids continue this one's), minus every POI whose id is in
        ``deleted``.  The result equals the fresh build field by field, but
        everything before the first deleted id of this collection is
        shared: its POIs, term-id sets and vocabulary.  Only the POIs after
        that id and the surviving ``appended`` ones are renumbered and
        interned, so the cost is that suffix, not the collection.
        """
        first = self.kept_prefix(deleted)
        tail = [poi for poi in self._pois[first:]
                if poi.poi_id not in deleted]
        tail.extend(poi for poi in appended if poi.poi_id not in deleted)
        return self._prefix_with(first, tail)

    def kept_prefix(self, deleted: AbstractSet[int]) -> int:
        """How many POIs :meth:`derive` shares: those before the first id
        of this collection in ``deleted``."""
        return min((poi_id for poi_id in deleted
                    if 0 <= poi_id < len(self)), default=len(self))

    def _prefix_with(self, keep: int, tail: Sequence[POI]) -> "POICollection":
        """The first ``keep`` POIs, shared, then ``tail`` interned anew."""
        if not keep and not tail:
            raise ValueError("a POI collection needs at least one POI")
        out = POICollection.__new__(POICollection)
        out._pois = self._pois[:keep]
        out.term_id_sets = self.term_id_sets[:keep]
        out.xs = self.xs[:keep]
        out.ys = self.ys[:keep]
        out.vocabulary = self.vocabulary.rolled_back(
            Counter(chain.from_iterable(self.term_id_sets[keep:])))
        out._append(tail)
        if keep < len(self):
            out.mbr = MBR.from_points(p.location for p in out._pois)
        elif tail:
            out.mbr = self.mbr.union(MBR.from_points(p.location for p in tail))
        else:
            out.mbr = self.mbr
        return out

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pois)

    def __iter__(self) -> Iterator[POI]:
        return iter(self._pois)

    def __getitem__(self, poi_id: int) -> POI:
        return self._pois[poi_id]

    def location(self, poi_id: int) -> Point:
        """Location of the POI with the given id."""
        return self._pois[poi_id].location

    def query_term_ids(self, keywords: Iterable[str],
                       require_all: bool = True,
                       ) -> Optional[FrozenSet[int]]:
        """Term ids of query keywords.

        With ``require_all`` (conjunctive queries) any unknown keyword
        means no POI can match, so ``None`` is returned.  Without it
        (disjunctive queries) unknown keywords are simply dropped and
        ``None`` means *every* keyword was unknown.
        """
        if require_all:
            return self.vocabulary.ids_of(keywords)
        ids = {self.vocabulary.id_of(k) for k in keywords}
        ids.discard(None)
        return frozenset(ids) if ids else None

    def subset(self, size: int) -> "POICollection":
        """The first ``size`` POIs as a new collection (scalability runs)."""
        if not 1 <= size <= len(self):
            raise ValueError(
                f"subset size {size} outside [1, {len(self)}]")
        return self._prefix_with(size, ())

    # -- statistics ----------------------------------------------------------

    @property
    def total_term_occurrences(self) -> int:
        """Sum over POIs of their distinct keyword counts (Table II row 2)."""
        return sum(len(t) for t in self.term_id_sets)

    @property
    def num_unique_terms(self) -> int:
        """Distinct keywords across the collection (Table II row 3)."""
        return len(self.vocabulary)

    @property
    def avg_terms_per_poi(self) -> float:
        """Average distinct keywords per POI (Table II row 4)."""
        return self.total_term_occurrences / len(self)
