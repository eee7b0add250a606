"""Regression lock on the PR-4 D-mode accounting fix.

D mode (direction-only pruning) once under-attributed fetched POIs in
the span aggregates, so ``explain()`` could not reconcile against the
untraced counters.  This pins the repaired contract — *exact* equality,
row by row — under fixed seeds.  Two runs of the same query must agree
exactly, so this is also the runtime guard for search determinism: no
wall-clock reads or unseeded randomness on the search path (DAL006's
invariant; see "Retired rules" in docs/ANALYSIS.md).
"""

import pytest

from repro.core import DesksIndex, PruningMode
from repro.trace import explain

from .conftest import make_collection, make_queries

SEEDS = [7, 21, 1234]


@pytest.mark.parametrize("seed", SEEDS)
def test_dmode_reconciles_exactly_under_fixed_seeds(tmp_path, seed):
    collection = make_collection(n=350, seed=seed)
    index = DesksIndex(collection, num_bands=4, num_wedges=6,
                       disk_based=True,
                       disk_path_prefix=str(tmp_path / f"idx{seed}"),
                       buffer_capacity=8)
    for query in make_queries(8, seed=seed):
        report = explain(index, query, mode=PruningMode.D)
        assert report.mode == "D"
        assert report.reconciled, report.render()
        for row in report.reconciliation:
            # The acceptance bar is exact equality, not tolerance: the
            # span totals must equal the untraced counters to the unit.
            assert row["span"] == row["independent"], (seed, row)


@pytest.mark.parametrize("seed", SEEDS)
def test_dmode_explain_is_deterministic(tmp_path, seed):
    """Two explains of the same query agree on every reconciled count —
    the replayability the search path must keep."""
    collection = make_collection(n=350, seed=seed)
    index = DesksIndex(collection, num_bands=4, num_wedges=6,
                       disk_based=True,
                       disk_path_prefix=str(tmp_path / f"idx{seed}"),
                       buffer_capacity=8)
    (query,) = make_queries(1, seed=seed + 1)
    first = explain(index, query, mode=PruningMode.D)
    second = explain(index, query, mode=PruningMode.D)
    strip = {"pages_read"}  # cache state differs between passes
    rows_first = [r for r in first.reconciliation
                  if r["quantity"] not in strip]
    rows_second = [r for r in second.reconciliation
                   if r["quantity"] not in strip]
    assert rows_first == rows_second
