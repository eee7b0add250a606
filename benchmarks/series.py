"""Timed query workloads and their plain-text series tables.

Each paper figure runs one workload per (x-value, method) through
:func:`run_workload` and renders a *series table*: one row per x-value
(k, direction width, keyword count, ...) and one column per method — the
same rows/series the paper plots.  Results are also written to
``results/`` files so EXPERIMENTS.md can quote measured numbers.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import DirectionalQuery, QueryResult
from repro.storage import SearchStats

#: A search callable: (query, stats) -> QueryResult.
SearchFn = Callable[[DirectionalQuery, Optional[SearchStats]], QueryResult]


@dataclass(frozen=True)
class RunMeasurement:
    """Aggregate outcome of running one method over one workload."""

    method: str
    num_queries: int
    total_seconds: float
    stats: SearchStats
    total_results: int

    @property
    def avg_ms(self) -> float:
        """Mean elapsed milliseconds per query — the paper's y-axis."""
        return 1000.0 * self.total_seconds / max(self.num_queries, 1)

    @property
    def avg_pois_examined(self) -> float:
        """Mean POIs touched per query — a hardware-independent proxy."""
        return self.stats.pois_examined / max(self.num_queries, 1)

    @property
    def avg_io(self) -> float:
        """Mean logical page reads per query (disk-backed methods only)."""
        return self.stats.io.logical_reads / max(self.num_queries, 1)


def run_workload(method: str, search_fn: SearchFn,
                 queries: Sequence[DirectionalQuery],
                 warmup: int = 2) -> RunMeasurement:
    """Run ``queries`` through ``search_fn`` and aggregate time and stats.

    A few warm-up queries are executed first (untimed) so interpreter and
    cache warm-up does not pollute the first data point, mirroring the
    paper's averaged measurements.
    """
    for query in queries[:warmup]:
        search_fn(query, None)
    stats = SearchStats()
    total_results = 0
    started = time.perf_counter()
    for query in queries:
        result = search_fn(query, stats)
        total_results += len(result)
    elapsed = time.perf_counter() - started
    return RunMeasurement(method, len(queries), elapsed, stats,
                          total_results)


def desks_search_fn(searcher, mode) -> SearchFn:
    """Adapter for :class:`~repro.core.DesksSearcher` at a pruning mode."""
    def fn(query, stats):
        return searcher.search_regions(query, mode, stats)
    return fn


def baseline_search_fn(index) -> SearchFn:
    """Adapter for any :class:`~repro.baselines.BaselineIndex`."""
    def fn(query, stats):
        return index.search(query, stats)
    return fn


def format_series_table(title: str, x_label: str,
                        x_values: Sequence, columns: Dict[str, List[float]],
                        unit: str = "ms") -> str:
    """Render one experiment's series as an aligned text table."""
    names = list(columns)
    for name in names:
        if len(columns[name]) != len(x_values):
            raise ValueError(
                f"column {name!r} has {len(columns[name])} values for "
                f"{len(x_values)} x-values")
    width = max(12, max((len(n) for n in names), default=12) + 2)
    lines = [title, "=" * len(title)]
    header = f"{x_label:<16}" + "".join(f"{n:>{width}}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(x_values):
        cells = "".join(f"{columns[n][i]:>{width}.3f}" for n in names)
        lines.append(f"{str(x):<16}" + cells)
    lines.append(f"(values in {unit})")
    return "\n".join(lines)


def write_result(name: str, content: str,
                 results_dir: Optional[str] = None) -> str:
    """Write one experiment's rendered output under ``results/``.

    Returns the path written.  The directory defaults to ``results`` next
    to the current working directory (the repo root when run via pytest).
    """
    directory = results_dir or os.path.join(os.getcwd(), "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content.rstrip() + "\n")
    return path


def write_json_result(name: str, payload: Dict[str, object],
                      results_dir: Optional[str] = None) -> str:
    """Write one experiment's data as ``results/<name>.json``.

    The machine-readable twin of :func:`write_result`: the text tables are
    for eyeballs, these files are for tooling (CI trend checks, plotting).
    ``payload`` must be JSON-serializable; it is wrapped in an envelope
    with the benchmark name and a generation timestamp.  Returns the path
    written.
    """
    directory = results_dir or os.path.join(os.getcwd(), "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    envelope = {
        "benchmark": name,
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "data": payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def ascii_chart(title: str, x_labels: Sequence,
                columns: Dict[str, List[float]], height: int = 12,
                log_scale: bool = False) -> str:
    """Render series as a rough ASCII line chart (one glyph per series).

    The paper's comparison figures are log-scale plots; ``log_scale=True``
    reproduces that reading.  Intended for the ``results/`` files — a shape
    you can eyeball without plotting libraries.
    """
    if height < 2:
        raise ValueError(f"chart height must be at least 2, got {height}")
    names = list(columns)
    if not names or not x_labels:
        raise ValueError("ascii_chart needs at least one series and x value")
    for name in names:
        if len(columns[name]) != len(x_labels):
            raise ValueError(
                f"series {name!r} length != number of x labels")
    glyphs = "*o+x#@%&"

    def transform(v: float) -> float:
        if log_scale:
            return math.log10(max(v, 1e-12))
        return v

    values = [transform(v) for name in names for v in columns[name]]
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    # grid[row][col]; row 0 is the top.
    width = len(x_labels)
    grid = [[" "] * width for _ in range(height)]
    for series_idx, name in enumerate(names):
        glyph = glyphs[series_idx % len(glyphs)]
        for col, value in enumerate(columns[name]):
            level = (transform(value) - lo) / span
            row = height - 1 - int(round(level * (height - 1)))
            cell = grid[row][col]
            grid[row][col] = "=" if cell not in (" ", glyph) else glyph

    def fmt_axis(v: float) -> str:
        raw = 10 ** v if log_scale else v
        return f"{raw:10.3g}"

    lines = [title]
    for row_idx, row in enumerate(grid):
        level = hi - span * row_idx / (height - 1)
        axis = fmt_axis(level)
        lines.append(f"{axis} |" + "  ".join(row))
    lines.append(" " * 10 + " +" + "-" * (3 * width - 2))
    label_line = " " * 12 + "".join(f"{str(x):<3}"[:3] for x in x_labels)
    lines.append(label_line)
    legend = "  ".join(f"{glyphs[i % len(glyphs)]}={name}"
                       for i, name in enumerate(names))
    lines.append(" " * 12 + legend + ("  (log scale)" if log_scale else ""))
    return "\n".join(lines)


def speedup(baseline_value: float, method_value: float) -> float:
    """How many times faster ``method`` is than ``baseline``."""
    if method_value <= 0.0:
        return float("inf")
    return baseline_value / method_value
