"""Self-check of the e2e harness on the smoke sizing (VA/200).

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e -q``; tier-1 does not collect
it (``testpaths = ["tests"]``).  Numbers are not judged here, only that
the harness emits what ``BENCHMARK.json`` promises, that its spans form
trees, and that what should repeat exactly does.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import (  # noqa: E402 - needs the path above
    CLIENT_CALL,
    CLIENT_EXECUTE,
    ROUTER_EXECUTE,
    Span,
    check_nesting,
)

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: Layer metrics that are counts of a deterministic computation.
EXACT = ("core.search.pois_examined_per_query",
         "core.search.subregions_examined_per_query",
         "core.search.distance_computations_per_query",
         "net.protocol.request_bytes", "net.protocol.response_bytes",
         "kernel.snapshot.nbytes")


def run(*arguments):
    """``run.py --smoke`` with ``arguments``; its stdout lines, parsed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *arguments],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return [json.loads(line) for line in done.stdout.splitlines()]


@pytest.fixture(scope="module")
def full_set():
    return run("--seed", "11")[-1]


def traced_cold(seed, trace_out=None):
    arguments = ["--workload", "dql_cluster_cold", "--trace", "1",
                 "--seed", str(seed)]
    if trace_out is not None:
        arguments += ["--trace-out", str(trace_out)]
    info, result = run(*arguments)
    return info, result


def test_every_workload_emits_the_contract(full_set):
    assert list(full_set["workloads"]) == [
        entry["name"] for entry in SPEC["workloads"]]
    for name, entry in full_set["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            counts = entry[f"{section}_counts"]
            assert counts["correct"] and counts["failed"] == 0, name
            assert counts["attempted"] >= 1
            emitted = entry[section]
            assert list(emitted) == [m["name"] for m in SPEC[section]]
            for metric in SPEC[section]:
                value = emitted[metric["name"]]
                assert value["unit"] == metric["unit"]
                assert math.isfinite(value["value"]), (name, metric["name"])
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0.0


def test_workloads_are_separated_by_their_caches(full_set):
    def hit_rate(name):
        return full_set["workloads"][name]["per_layer"][
            "service.cache.hit_rate"]["value"]

    assert hit_rate("dql_cluster_cold") == 0.0
    assert hit_rate("dql_cluster_hot") >= 0.98
    assert hit_rate("mutable_read_write") <= 0.10


def test_spans_form_trees(tmp_path):
    path = tmp_path / "spans.json"
    traced_cold(11, path)
    spans = [Span(**record) for record in json.loads(path.read_text())]
    assert {span.name for span in spans} == {
        CLIENT_CALL, ROUTER_EXECUTE, CLIENT_EXECUTE}
    assert check_nesting(spans) == []
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.name == CLIENT_CALL:
            assert span.parent is None
        else:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_exact_counts_repeat_with_the_seed_and_move_with_it(full_set):
    first = full_set["workloads"]["dql_cluster_cold"]
    first_hash = first["info"][1]["workload_hash"]
    assert first["info"][0]["workload_hash"] == first_hash
    same_info, same = traced_cold(11)
    other_info, other = traced_cold(12)
    assert same_info["workload_hash"] == first_hash
    assert other_info["workload_hash"] != first_hash
    for name in EXACT:
        value = first["per_layer"][name]["value"]
        assert same["metrics"][name]["value"] == value, name
    assert any(other["metrics"][name]["value"]
               != first["per_layer"][name]["value"] for name in EXACT)
