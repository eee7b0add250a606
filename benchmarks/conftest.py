"""Shared fixtures for the paper-reproduction benchmarks.

Datasets are the Table II presets scaled to laptop-Python size (the scale
divides POI counts; keyword skew and terms/POI are preserved — see
DESIGN.md).  All fixtures are session-scoped and built lazily, so running a
single benchmark module only builds what it needs.

Index parameters: the paper tunes towards ~10k POIs per band and ~100 per
sub-region at million-POI scale.  At our ~200x smaller scale we keep the
same *number* of regions proportionally by targeting ~200 POIs per band and
~10 per sub-region, which preserves the pruning granularity the paper's
figures exercise.
"""

import pytest

from repro.baselines import FilterThenVerify, IRTree, MIR2Tree
from repro.core import DesksIndex, DesksSearcher
from repro.datasets import california_like, china_like, generate, virginia_like

#: Dataset scale factors (divide the paper's POI counts).
SCALES = {"VA": 200.0, "CA": 200.0, "CN": 2000.0}

#: Bench-scale band/wedge tuning (see module docstring).
POIS_PER_BAND = 200
POIS_PER_WEDGE = 10


def bench_bands(num_pois: int) -> int:
    return max(2, round(num_pois / POIS_PER_BAND))


def bench_wedges(num_pois: int, bands: int) -> int:
    return max(2, round(num_pois / bands / POIS_PER_WEDGE))


_FACTORIES = {"VA": virginia_like, "CA": california_like, "CN": china_like}


@pytest.fixture(scope="session")
def datasets():
    """name -> POICollection for the three Table II presets."""
    return {
        name: generate(factory(scale=SCALES[name]))
        for name, factory in _FACTORIES.items()
    }


@pytest.fixture(scope="session")
def desks_indexes(datasets):
    """name -> built DesksIndex with bench-scale parameters."""
    out = {}
    for name, collection in datasets.items():
        bands = bench_bands(len(collection))
        wedges = bench_wedges(len(collection), bands)
        out[name] = DesksIndex(collection, num_bands=bands,
                               num_wedges=wedges)
    return out


@pytest.fixture(scope="session")
def desks_searchers(desks_indexes):
    return {name: DesksSearcher(idx) for name, idx in desks_indexes.items()}


@pytest.fixture(scope="session")
def baseline_indexes(datasets):
    """name -> {method name -> baseline index}."""
    out = {}
    for name, collection in datasets.items():
        out[name] = {
            "MIR2-tree": MIR2Tree(collection, fanout=50),
            "LkT": IRTree(collection, fanout=50),
            "filter-verify": FilterThenVerify(collection, fanout=50),
        }
    return out
