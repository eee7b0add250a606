"""The pure-Python index construction, kept as the tests' reference.

These are the loops ``repro.core.regions`` and ``repro.core.stores`` ran
before construction was vectorised: one ``sorted(key=...)`` and one
``key()`` call per element for the band/wedge cuts, one Python step per
(POI, term) pair for the keyword lists.  The shipped code must build
exactly this structure (``test_layout_oracle.py``); nothing under
``src/`` imports it.
"""

import numpy as np

from repro.geometry import HALF_PI


def partition_with_ties(ordered, buckets, key):
    """Cut ``ordered`` into ~``buckets`` chunks; equal keys stay together.

    The paper's partitioning rule: fill each bucket to the target size, then
    keep absorbing items whose key equals the bucket's last key, so a band
    boundary never falls between equal distances (or a wedge boundary
    between equal directions).
    """
    n = len(ordered)
    if n == 0:
        return []
    target = max(1, round(n / buckets))
    chunks = []
    i = 0
    while i < n:
        j = min(i + target, n)
        while j < n and key(ordered[j]) == key(ordered[j - 1]):
            j += 1
        chunks.append(ordered[i:j])
        i = j
    return chunks


def polar_coordinates(frame, locations):
    """Per-POI (distance, direction) to the anchor, as plain lists.

    The coordinate arithmetic was numpy's before too; what changed is
    everything downstream of it.  A POI exactly on the anchor has no
    direction; it gets 0.
    """
    xs = np.fromiter((p.x for p in locations), dtype=float,
                     count=len(locations))
    ys = np.fromiter((p.y for p in locations), dtype=float,
                     count=len(locations))
    cx, cy = frame.to_canonical_xy(xs, ys)
    distances = np.hypot(cx, cy)
    thetas = np.where(distances > 0.0, np.arctan2(cy, cx), 0.0)
    return distances.tolist(), thetas.tolist()


class ReferenceRegions:
    """Bands and sub-regions of one anchor, cut with Python sorts."""

    def __init__(self, frame, locations, num_bands, num_wedges):
        self.distances, self.thetas = polar_coordinates(frame, locations)
        by_distance = sorted(range(len(locations)),
                             key=lambda i: self.distances[i])
        band_chunks = partition_with_ties(
            by_distance, num_bands, key=lambda i: self.distances[i])
        self.poi_order = []
        self.band_radii = []            # inner radius of each band
        self.band_wedge_counts = []
        self.subregions = []            # (theta_lo, theta_hi, start, end)
        for chunk in band_chunks:
            self.band_radii.append(self.distances[chunk[0]])
            by_theta = sorted(chunk, key=lambda i: self.thetas[i])
            wedge_chunks = partition_with_ties(
                by_theta, num_wedges, key=lambda i: self.thetas[i])
            self.band_wedge_counts.append(len(wedge_chunks))
            band_subregions = []
            for wedge in wedge_chunks:
                start = len(self.poi_order)
                self.poi_order.extend(wedge)
                theta_lo = self.thetas[wedge[0]]
                if band_subregions:
                    band_subregions[-1][1] = theta_lo
                band_subregions.append(
                    [theta_lo, HALF_PI, start, len(self.poi_order)])
            self.subregions.extend(tuple(sub) for sub in band_subregions)
        self.position_of = [0] * len(locations)
        for position, poi_id in enumerate(self.poi_order):
            self.position_of[poi_id] = position


def reference_term_layout(poi_order, subregions, poi_term_ids):
    """Per term, ``(region_gids, pointers, poi_list)``, pair by pair.

    ``subregions`` is a sequence of ``(start, end)`` position ranges in gid
    order; ``poi_term_ids[poi_id]`` is the term-id set of each POI.
    """
    per_term_positions = {}
    for position, poi_id in enumerate(poi_order):
        for term_id in poi_term_ids[poi_id]:
            per_term_positions.setdefault(term_id, []).append(position)
    # Positions were appended in increasing order, so each list is sorted.
    gid_by_position = [0] * len(poi_order)
    for gid, (start, end) in enumerate(subregions):
        gid_by_position[start:end] = [gid] * (end - start)
    layout = {}
    for term_id, positions in per_term_positions.items():
        region_gids = []
        pointers = []
        poi_list = [poi_order[p] for p in positions]
        last_gid = -1
        for list_pos, position in enumerate(positions):
            gid = gid_by_position[position]
            if gid != last_gid:
                region_gids.append(gid)
                pointers.append(list_pos)
                last_gid = gid
        layout[term_id] = (region_gids, pointers, poi_list)
    return layout
