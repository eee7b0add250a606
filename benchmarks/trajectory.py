"""``trajectory.py append A.json [B.json ...] --label "PR 23"``: one row per
workload in ``results/trajectory.jsonl`` — the median over the given
``benchmarks/e2e/run.py --out`` files of each end-to-end metric and of
``machine.calibration_ms``, ``failed`` summed over both sections, the seeds,
and the commit the files were measured on."""
import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rows(paths, label, commit):
    sets = [json.loads(Path(path).read_text(encoding="utf-8"))
            for path in paths]
    for workload in sets[0]["workloads"]:
        runs = [result_set["workloads"][workload] for result_set in sets]
        row = {"label": label, "commit": commit, "workload": workload,
               "seeds": [result_set["seed"] for result_set in sets]}
        for metric in runs[0]["end_to_end"]:
            row[metric] = statistics.median(
                run["end_to_end"][metric]["value"] for run in runs)
        row["failed"] = sum(run[f"{section}_counts"]["failed"] for run in runs
                            for section in ("end_to_end", "per_layer"))
        row["calibration_ms"] = statistics.median(
            run["per_layer"]["machine.calibration_ms"]["value"]
            for run in runs)
        yield row


def main():
    parser = argparse.ArgumentParser(description="append trajectory rows")
    parser.add_argument("mode", choices=["append"])
    parser.add_argument("files", nargs="+", help="run.py --out files")
    parser.add_argument("--label", required=True, help="e.g. 'PR 23 parent'")
    parser.add_argument("--commit", help="default: git describe of this tree")
    args = parser.parse_args()
    commit = args.commit or subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip()
    with open(ROOT / "results" / "trajectory.jsonl", "a",
              encoding="utf-8") as out:
        out.writelines(json.dumps(row) + "\n"
                       for row in rows(args.files, args.label, commit))


if __name__ == "__main__":
    main()
