"""Pin the paper figures' work counts to the committed ``results/`` files.

The figure benchmarks (Table II, Figs. 14-21, the I/O comparison) rewrite
their ``results/*.txt`` files on every run.  The wall-clock tables
(``(values in ms)``) move with the machine; every other table counts work
— POIs examined per query, disk accesses per query, Table II's dataset
statistics — and is a function of the code and the seeds alone.  A change
to one of those is a change to what Algorithms 1-2 do, so it must be
deliberate: regenerate the file and explain the change.

Usage, from the repository root, after the figure runs::

    python benchmarks/paper_counts.py

It compares each pinned table of the working-tree file with the same
table of the file committed at ``HEAD`` and exits 1, printing a diff, on
any difference — a changed value, a table gone or a table added.  The
wall-clock tables are ignored.
"""

from __future__ import annotations

import difflib
import fnmatch
import glob
import os
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The files the figure benchmarks write, relative to the repository root.
PATTERNS = ("results/fig*.txt", "results/table2_datasets.txt",
            "results/io_comparison.txt")
#: The unit footer that closes every table of ``format_series_table``.
FOOTER = "(values in "


def count_tables(text: str) -> Dict[str, str]:
    """Title -> text of every table whose unit is not ``ms``.

    A table runs from its title line (the one above a ``====`` rule) to
    its ``(values in UNIT)`` footer; the ASCII charts between tables are
    skipped.  A file without footers (Table II) is one table, titled by
    its first line.
    """
    lines = text.splitlines()
    if not any(line.startswith(FOOTER) for line in lines):
        return {lines[0]: text} if lines else {}
    tables: Dict[str, str] = {}
    start = None
    for at, line in enumerate(lines):
        if start is None:
            rule = lines[at + 1] if at + 1 < len(lines) else ""
            if rule and set(rule) == {"="}:
                start = at
        elif line.startswith(FOOTER):
            if line != FOOTER + "ms)":
                tables[lines[start]] = "\n".join(lines[start:at + 1]) + "\n"
            start = None
    return tables


def pinned_files() -> List[str]:
    """The working tree's figure files."""
    found = {os.path.relpath(path, ROOT)
             for pattern in PATTERNS
             for path in glob.glob(os.path.join(ROOT, pattern))}
    return sorted(found)


def git(*args: str) -> str:
    run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    return run.stdout if run.returncode == 0 else ""


def read(path: str) -> str:
    """``path`` in the working tree; empty when it is not there."""
    try:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def check(ref: str) -> int:
    """Print every pinned table that differs from ``ref``; the count."""
    tracked = [path for path in git("ls-tree", "--name-only", ref,
                                    "results/").splitlines()
               if any(fnmatch.fnmatch(path, p) for p in PATTERNS)]
    drifted = 0
    checked = 0
    for path in sorted(set(tracked) | set(pinned_files())):
        current = count_tables(read(path))
        expected = count_tables(git("show", f"{ref}:{path}"))
        for title in sorted(set(current) | set(expected)):
            checked += 1
            before = expected.get(title, "")
            after = current.get(title, "")
            if before == after:
                continue
            drifted += 1
            sys.stdout.writelines(difflib.unified_diff(
                before.splitlines(True), after.splitlines(True),
                f"{ref}:{path}", path))
    print(f"paper counts: {checked} tables checked, {drifted} differ "
          f"from {ref}")
    return drifted


def main() -> int:
    return 1 if check("HEAD") else 0


if __name__ == "__main__":
    sys.exit(main())
