"""Fit the searcher's access-path cost model to the queries it serves.

    python benchmarks/fit_cost_model.py [--fit-seed 11] [--holdout-seed 12]
                                        [--repeats 5] [--smoke]

``DesksSearcher.search`` answers a query by the posting walk or by the
region search (Algorithms 1-2), whichever :func:`repro.core.search.price`
estimates cheaper.  This tool runs *both* paths on every query of the e2e
harness's own two mixes at CN/800 — ``paper_queries`` on the object
scanner, as ``core_paper_mix`` runs them, and ``scan_queries`` on the
columnar scanner over the 3x4 grid, as ``kernel_scan_batch`` runs them —
and checks that the two answers are identical.  It records each path's
calibrated best-of-``--repeats`` wall time, the two paths interleaved,
and the counts the model prices (:class:`repro.core.search.CostTerms`).
The walk is timed from its plan: ``search()`` counts the keyword holders
before it chooses either path, so that count is no part of either
path's price.  The holder count must equal the keyword matches counted
POI by POI, and on every query ``search()`` walks, the POIs it examined.

It then fits ``VERIFY_US`` and ``FILTER_US`` (the walk) and
``PIECE_US``, ``SUBREGION_US``, ``POSTING_US`` and ``SCAN_REACH`` (the
region search)
by least squares on the fit seed's timings, both mixes pooled, and
refines them by the path choice itself (:func:`refine`).  It prints for
each mix and seed the *regret* — the time of the paths the
model takes over the time of the faster paths, minus one — at the
constants in ``core/search.py`` and at the fitted ones, and how many
queries change path.  The held-out seed's queries are the same draw
moved a little (the harness's ``salted``), never seen by the fit.

``--smoke`` runs a few queries per mix on VA/200, once each.  The exit
status is 1 on any disagreement between the two paths' answers, between
the path ``search()`` took and the one the model names, or between the
holder count and the keyword matches or a walk's examined POIs; it never
depends on timing.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "e2e"), str(HERE.parent / "src")]

import harness  # noqa: E402  (the e2e harness, imported unedited)

from repro.core import (  # noqa: E402
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
)
from repro.core import search as core_search  # noqa: E402
from repro.core.search import CostTerms, _TopK, price  # noqa: E402
from repro.datasets import generate  # noqa: E402
from repro.kernel import ColumnarSearcher  # noqa: E402
from repro.storage import SearchStats  # noqa: E402
from repro.trace import Tracer  # noqa: E402

#: The model's constants, in ``price``'s argument order.
NAMES = ("VERIFY_US", "FILTER_US", "PIECE_US", "SUBREGION_US",
         "POSTING_US", "SCAN_REACH")
#: The values ``SCAN_REACH`` is searched over; the other four are linear.
REACHES = tuple(0.5 * step for step in range(1, 121))
#: Steps of the search that refines the least-squares fit.
REFINE_STEPS = 2000
#: What the search tries for a constant the fit left at zero.
RESTARTS = (0.001, 0.01, 0.1, 1.0)
#: Queries per mix under ``--smoke``.
SMOKE_QUERIES = 12


@dataclass
class Sample:
    """One query: its counts, the floor, and both paths' best times."""

    terms: CostTerms
    floor: bool       # the walk is taken without asking the model
    walk_s: float
    region_s: float

    def walks(self, constants: Sequence[float]) -> bool:
        if self.floor:
            return True
        walk, region = price(self.terms, *constants)
        return walk <= region


def current_constants() -> Tuple[float, ...]:
    return tuple(getattr(core_search, name) for name in NAMES)


def walk_entries(searcher: DesksSearcher, query: DirectionalQuery, plan):
    """The posting walk of ``plan`` alone, as ``search()`` runs it when
    it walks; ``plan`` is ``None`` when no POI can match."""
    collector = _TopK(query.k)
    if plan is not None:
        searcher._walk_postings(query, plan, collector, None, None, None,
                                None)
    return collector.entries()


def path_taken(searcher: DesksSearcher, query: DirectionalQuery,
               ) -> Tuple[str, int]:
    """``(path, POIs examined)`` of ``search()``."""
    tracer, stats = Tracer(), SearchStats()
    with tracer.activate():
        searcher.search(query, stats=stats)
    path = "walk" if tracer.find("desks.postings") else "regions"
    return path, stats.pois_examined


def keyword_matches(searcher: DesksSearcher, term_ids,
                    conjunctive: bool) -> int:
    """The POIs holding the keywords, each one's term set tested."""
    wanted = frozenset(term_ids)
    held = searcher._collection.term_id_sets
    if conjunctive:
        return sum(1 for terms in held if wanted <= terms)
    return sum(1 for terms in held if not wanted.isdisjoint(terms))


def measure(mix: str, searcher: DesksSearcher,
            queries: Sequence[DirectionalQuery], repeats: int,
            problems: List[str]) -> List[Sample]:
    """Both paths of every query, best of ``repeats`` calibrated passes;
    a disagreement is appended to ``problems``."""
    index = searcher.index
    floor_postings = index.num_bands * index.num_wedges
    frequency = searcher._collection.vocabulary.doc_frequency
    runs: List[Tuple[DirectionalQuery, object, Sample]] = []
    for query in queries:
        conjunctive = query.match_mode is MatchMode.ALL
        term_ids = searcher._resolve_terms(query.keywords, conjunctive)
        plan = (None if term_ids is None
                else searcher._walk_plan(term_ids, conjunctive))
        walked = walk_entries(searcher, query, plan)
        regions = searcher.search_regions(query).entries
        if walked != regions:
            problems.append(f"{mix}: the paths' answers differ on {query}")
        if term_ids is None:
            continue                  # no POI can match: nothing to choose
        terms = searcher._cost_terms(query, term_ids, conjunctive,
                                     plan.candidates)
        matches = keyword_matches(searcher, term_ids, conjunctive)
        if terms.holders != matches:
            problems.append(f"{mix}: {terms.holders} holders counted, "
                            f"{matches} keyword matches: {query}")
        sample = Sample(terms,
                        sum(map(frequency, plan.terms)) <= floor_postings,
                        math.inf, math.inf)
        taken, examined = path_taken(searcher, query)
        named = "walk" if sample.walks(current_constants()) else "regions"
        if taken != named:
            problems.append(f"{mix}: search() took the {taken} path, the "
                            f"model names the {named} path: {query}")
        if taken == "walk" and examined != terms.holders:
            problems.append(f"{mix}: {terms.holders} holders counted, the "
                            f"walk examined {examined}: {query}")
        runs.append((query, plan, sample))
    clock = time.perf_counter
    for _ in range(repeats):
        before = harness.calibrate()
        times = []
        for query, plan, sample in runs:
            start = clock()
            walk_entries(searcher, query, plan)
            middle = clock()
            searcher.search_regions(query)
            times.append((middle - start, clock() - middle))
        scale = harness.REFERENCE_CALIBRATION / (
            (before + harness.calibrate()) / 2.0)
        for (_, _, sample), (walk_s, region_s) in zip(runs, times):
            sample.walk_s = min(sample.walk_s, walk_s * scale)
            sample.region_s = min(sample.region_s, region_s * scale)
    return [sample for _, _, sample in runs]


def regret(samples: Sequence[Sample], constants: Sequence[float]) -> float:
    taken = sum(s.walk_s if s.walks(constants) else s.region_s
                for s in samples)
    best = sum(min(s.walk_s, s.region_s) for s in samples)
    return taken / best - 1.0


def least_squares(rows: List[List[float]], times: List[float],
                  ) -> Tuple[List[float], float]:
    """Non-negative coefficients minimising the squared error, and it."""
    a, b = np.asarray(rows, dtype=float), np.asarray(times, dtype=float)
    columns = list(range(a.shape[1]))
    while True:
        solution = np.linalg.lstsq(a[:, columns], b, rcond=None)[0]
        if (solution >= 0).all() or len(columns) == 1:
            break
        # A negative coefficient prices a count below nothing: drop the
        # most negative and refit the rest.
        del columns[int(np.argmin(solution))]
    coefficients = [0.0] * a.shape[1]
    for column, value in zip(columns, solution):
        coefficients[column] = max(0.0, float(value))
    residual = b - a @ np.asarray(coefficients)
    return coefficients, float(residual @ residual)


def fit(samples: Sequence[Sample]) -> Tuple[float, ...]:
    """Least squares in microseconds, each path on its own counts."""
    walk, _ = least_squares(
        [[s.terms.holders, s.terms.probed] for s in samples],
        [s.walk_s * 1e6 for s in samples])
    best = None
    for reach in REACHES:
        rows = []
        for s in samples:
            examined = s.terms.window * min(1.0, reach * s.terms.reach)
            rows.append([s.terms.pieces, examined,
                         examined * s.terms.density])
        region, error = least_squares(rows,
                                      [s.region_s * 1e6 for s in samples])
        if best is None or error < best[0]:
            best = (error, region, reach)
    _, region, reach = best
    return (*(round(value, 3) for value in walk + region), reach)


def refine(by_mix: Dict[str, List[Sample]], constants: Sequence[float],
           ) -> Tuple[float, ...]:
    """``constants`` after a seeded search for a lower regret.

    Least squares weighs every microsecond alike, but only the queries
    near the boundary between the paths decide the regret, and one set
    of constants serves two scanners.  So each step rescales one to
    three constants by a random factor (a zero one restarts from one of
    :data:`RESTARTS`) and is kept when the regret summed over the mixes
    does not rise.  ``VERIFY_US`` stays at its least-squares value, so
    the constants keep their units.
    """
    rng = random.Random(0)
    best = list(constants)
    lowest = sum(regret(samples, best) for samples in by_mix.values())
    for _ in range(REFINE_STEPS):
        trial = list(best)
        for position in rng.sample(range(1, len(trial)), rng.randint(1, 3)):
            value = trial[position]
            trial[position] = (round(value * 2.0 ** rng.gauss(0.0, 0.3), 3)
                               if value else rng.choice(RESTARTS))
        value = sum(regret(samples, trial) for samples in by_mix.values())
        if value <= lowest:
            best, lowest = trial, value
    return tuple(best)


def report(label: str, by_mix: Dict[str, List[Sample]],
           before: Sequence[float], after: Sequence[float]) -> None:
    for mix, samples in by_mix.items():
        changed = sum(s.walks(before) != s.walks(after) for s in samples)
        print(f"{label} {mix}: {len(samples)} queries, regret before "
              f"{regret(samples, before):.1%} after "
              f"{regret(samples, after):.1%}, {changed} change path; "
              f"paths taken after {sum(s.walks(after) for s in samples)} "
              f"walk / {sum(not s.walks(after) for s in samples)} regions")


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fit-seed", type=int, default=harness.BASE_SEED)
    parser.add_argument("--holdout-seed", type=int,
                        default=harness.BASE_SEED + 1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="VA/200, a few queries per mix, one pass")
    args = parser.parse_args(argv)
    sizing = harness.SMOKE if args.smoke else harness.FULL
    repeats = 1 if args.smoke else args.repeats
    limit = SMOKE_QUERIES if args.smoke else None
    collection = generate(sizing.preset(scale=sizing.scale))
    searchers = {
        "paper": DesksSearcher(DesksIndex(collection)),
        "scan": ColumnarSearcher(DesksIndex(collection,
                                            *harness.KERNEL_GRID)),
    }
    draws = {
        "paper": lambda seed: harness.paper_queries(collection, seed,
                                                    sizing.per_set),
        "scan": lambda seed: harness.scan_queries(collection, seed,
                                                  sizing.scan_per_mix),
    }
    problems: List[str] = []
    measured = {}
    for seed in (args.fit_seed, args.holdout_seed):
        measured[seed] = {
            mix: measure(mix, searchers[mix], draws[mix](seed)[:limit],
                         repeats, problems)
            for mix in searchers}
    before = current_constants()
    after = refine(measured[args.fit_seed],
                   fit([sample for samples in measured[args.fit_seed].values()
                        for sample in samples]))
    print(f"fit on seed {args.fit_seed}, held out seed "
          f"{args.holdout_seed}, best of {repeats}, "
          f"{len(collection)} POIs")
    report(f"fit seed {args.fit_seed}", measured[args.fit_seed], before,
           after)
    report(f"held-out seed {args.holdout_seed}",
           measured[args.holdout_seed], before, after)
    print("constants (core/search.py):")
    for name, old, new in zip(NAMES, before, after):
        print(f"  {name} = {new}    (was {old})")
    print(f"path disagreements: {len(problems)}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
