"""Executable documentation: every ``python`` fence in the docs runs.

Docs rot silently.  This harness extracts every ````` ```python `````
code fence from README.md and every file under ``docs/`` and executes
them — one shared namespace per document, in order, inside a temp
directory — so an API rename that breaks a published example breaks CI.

A fence can opt out by placing ``<!-- snippet: no-run -->`` on the line
directly above it (for illustrative pseudo-code or examples that need
external state).

The companion link checker verifies every relative markdown link in the
same documents (plus ``results/REPORT.md``) resolves to a real file.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"

NO_RUN_TAG = "<!-- snippet: no-run -->"

_FENCE = re.compile(r"^(?P<prefix>[^\n]*)\n```python\n(?P<code>.*?)^```$",
                    re.DOTALL | re.MULTILINE)

#: Documents whose python fences must execute.
SNIPPET_DOCS = [REPO_ROOT / "README.md"] + sorted(DOCS_DIR.glob("*.md"))

#: Documents whose links must resolve.
LINKED_DOCS = SNIPPET_DOCS + [REPO_ROOT / "results" / "REPORT.md"]


def python_snippets(path):
    """(code, runnable) for each python fence in ``path``, in order."""
    text = path.read_text(encoding="utf-8")
    return [(m.group("code"), NO_RUN_TAG not in m.group("prefix"))
            for m in _FENCE.finditer("\n" + text)]


def _shrink(code):
    # Keep doc snippets honest but fast: preset ``scale`` divides the
    # paper's POI counts, so a larger scale means a smaller dataset.
    return code.replace("scale=500", "scale=5000") \
               .replace("scale=1000", "scale=5000")


@pytest.mark.parametrize(
    "doc", SNIPPET_DOCS, ids=[p.name for p in SNIPPET_DOCS])
def test_every_python_fence_runs(doc, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # snippets may write index dirs etc.
    namespace = {}
    ran = 0
    for index, (code, runnable) in enumerate(python_snippets(doc)):
        if not runnable:
            continue
        try:
            exec(compile(_shrink(code), f"<{doc.name}:snippet-{index}>",
                         "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - reported with context
            pytest.fail(f"{doc.name} snippet #{index} raised "
                        f"{type(error).__name__}: {error}\n---\n{code}")
        ran += 1
    if doc.name in ("README.md", "TUTORIAL.md", "OBSERVABILITY.md"):
        assert ran > 0, f"{doc.name} lost its runnable code fences?"


class TestTutorialWalkthrough:
    """The tutorial is a narrative; check it builds what it claims."""

    def test_walkthrough_produces_its_objects(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for code, runnable in python_snippets(DOCS_DIR / "TUTORIAL.md"):
            if runnable:
                exec(compile(_shrink(code), "<tutorial>", "exec"),
                     namespace)
        assert "searcher" in namespace
        assert "live" in namespace

    def test_tutorial_mentions_every_public_entry_point(self):
        text = (DOCS_DIR / "TUTORIAL.md").read_text(encoding="utf-8")
        for name in ("DesksIndex", "DesksSearcher", "DirectionalQuery",
                     "IncrementalSearcher", "MutableDesksIndex",
                     "PruningMode", "save_index", "load_index",
                     "SearchStats", "MatchMode", "Tracer", "explain"):
            assert name in text, f"tutorial no longer shows {name}"


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def relative_links(path):
    out = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        out.append(target.split("#", 1)[0])
    return out


@pytest.mark.parametrize(
    "doc", [p for p in LINKED_DOCS if p.exists()],
    ids=[p.name for p in LINKED_DOCS if p.exists()])
def test_relative_links_resolve(doc):
    broken = [target for target in relative_links(doc)
              if not (doc.parent / target).exists()]
    assert not broken, f"{doc} has broken relative links: {broken}"
