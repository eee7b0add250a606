"""The repo's end-to-end benchmark.  See README.md in this directory.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is the result object
        (end-to-end metrics with --trace 0, per-layer with --trace 1)
    python3 benchmarks/e2e/run.py --seed N [--smoke] [--repeat 2] [--out F]
        every workload, untraced then traced, each in a fresh process
    python3 benchmarks/e2e/run.py compare A.json B.json
        B against A, per workload and end-to-end metric, with the bounds
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
# The program is measured from its source tree, uninstalled; the sibling
# modules import each other by plain name.
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, trace_out: Optional[str],
                 ) -> Tuple[dict, dict]:
    """Measure one workload; ``(result, info)``.

    ``result`` is the driver's object; ``info`` is what else a reader
    wants (workload hash, sample counts, set-up repetitions).
    """
    import harness
    import layers
    from spans import Recorder, check_nesting

    sizing = harness.SMOKE if smoke else harness.FULL
    recorder = Recorder() if trace else None
    workload = harness.WORKLOADS[name](sizing, seed, recorder)
    setups = harness.set_up(workload,
                            1 if trace else sizing.setup_repeats)
    try:
        workload.prepare()
        if trace:
            cycles, values = layers.traced_run(workload, seconds)
            problems = check_nesting(recorder.spans)
        else:
            cycles = harness.measure(workload, seconds)
            values = harness.summarize(cycles)
            # Calibrated like the cycles: see harness.summarize.
            values["setup_s"] = statistics.median(
                seconds * harness.REFERENCE_CALIBRATION / calibration
                for seconds, calibration in setups)
            # Read before verification builds its reference index.
            values["peak_rss_mb"] = harness.peak_rss_mb(
                workload.child_pids())
            problems = []
        checked, wrong = workload.verify()
    finally:
        workload.stop()
    if trace_out and recorder is not None:
        recorder.dump(trace_out)
    attempted = sum(cycle.ops for cycle in cycles) + checked
    failed = sum(cycle.failed for cycle in cycles) + wrong
    metrics = {
        entry["name"]: {"value": values[entry["name"]],
                        "unit": entry["unit"]}
        for entry in SPEC["per_layer" if trace else "end_to_end"]}
    bad = [key for key, metric in metrics.items()
           if not math.isfinite(metric["value"])]
    if bad:
        problems.append(f"not finite: {bad}")
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "workload_hash": workload.workload_hash,
            "cycles": len(cycles),
            "samples": sum(len(cycle.latencies) for cycle in cycles),
            "timed_s": sum(cycle.seconds for cycle in cycles),
            "cycle_ops_s": [round(cycle.ops / cycle.seconds, 1)
                            for cycle in cycles],
            "calibration_ms": 1e3 * statistics.median(
                cycle.calibration for cycle in cycles),
            "uncalibrated": harness.summarize(cycles, calibrated=False),
            "setup_runs_s": [seconds for seconds, _ in setups],
            "answers_checked": checked,
            "answers_wrong": wrong, "problems": problems[:10]}
    return result, info


# -- every workload, and comparing two result sets ------------------------------


def run_all(seed: int, seconds: float, smoke: bool) -> dict:
    """Each workload untraced then traced, each in a fresh process so
    that ``peak_rss_mb`` belongs to one workload."""
    results: Dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        entry: Dict[str, object] = {"info": []}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if len(lines) < 2:
                raise SystemExit(f"{name} --trace {trace} printed no "
                                 f"result (exit {done.returncode})")
            result = json.loads(lines[-1])
            entry["info"].append(json.loads(lines[-2]))
            entry[section] = result["metrics"]
            entry[f"{section}_counts"] = {
                key: result[key] for key in ("correct", "attempted",
                                             "failed")}
        results[name] = entry
    return {"seed": seed, "seconds": seconds, "smoke": smoke,
            "workloads": results}


def compare(first: dict, second: dict, symmetric: bool) -> int:
    """Print ``second`` against ``first``; the number of bound breaches.

    A metric breaches when ``second`` is worse than ``first`` by more
    than its bound; with ``symmetric`` (two runs of one commit), when
    they differ by more than the bound in either direction.
    """
    breaches = 0
    print(f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name in WORKLOAD_NAMES:
        for spec in SPEC["end_to_end"]:
            metric = spec["name"]
            a = first["workloads"][name]["end_to_end"][metric]["value"]
            b = second["workloads"][name]["end_to_end"][metric]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            over = (abs(worse) if symmetric else worse) > spec["bound"]
            breaches += over
            print(f"{name:20s} {metric:18s} {a:12.4f} {b:12.4f} "
                  f"{worse:+9.1%} {spec['bound']:6.0%} "
                  f"{'FAIL' if over else 'ok'}")
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="*", metavar="compare A.json B.json")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small dataset and op lists, short rounds")
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1,
                        help="2: run everything twice and compare")
    parser.add_argument("--out", help="write the result set(s) here")
    parser.add_argument("--trace-out",
                        help="with --workload --trace 1: write the spans")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (
        0.2 if args.smoke else float(SPEC["run_seconds"]))

    if args.mode:
        if len(args.mode) != 3 or args.mode[0] != "compare":
            parser.error("the only positional form is: compare A.json B.json")
        first, second = (json.loads(Path(path).read_text(encoding="utf-8"))
                         for path in args.mode[1:])
        return 1 if compare(first, second, symmetric=False) else 0

    if args.workload:
        result, info = run_workload(args.workload, args.seed, seconds,
                                    bool(args.trace), args.smoke,
                                    args.trace_out)
        print(json.dumps(info))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    sets = [run_all(args.seed, seconds, args.smoke)
            for _ in range(args.repeat)]
    if args.out:
        for position, result_set in enumerate(sets):
            path = args.out if position == 0 else f"{args.out}.{position + 1}"
            Path(path).write_text(json.dumps(result_set, indent=1),
                                  encoding="utf-8")
    print(json.dumps(sets[-1] if args.repeat == 1 else sets))
    wrong = any(not entry[f"{section}_counts"]["correct"]
                for result_set in sets
                for entry in result_set["workloads"].values()
                for section in ("end_to_end", "per_layer"))
    breaches = compare(sets[0], sets[1], symmetric=True) \
        if args.repeat == 2 else 0
    return 1 if wrong or breaches else 0


if __name__ == "__main__":
    sys.exit(main())
