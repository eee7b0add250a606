"""``benchmarks/fit_cost_model.py --smoke``: both access paths agree on
every query of both mixes, and the report names what it fitted.  Nothing
here depends on timing."""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_smoke_run_agrees_on_every_path_and_reports_the_regret():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "fit_cost_model.py"),
         "--smoke"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    out = result.stdout
    assert "path disagreements: 0" in out
    for seed in ("fit seed 11", "held-out seed 12"):
        for mix in ("paper", "scan"):
            assert re.search(
                rf"^{seed} {mix}: \d+ queries, regret before [\d.]+% "
                r"after [\d.]+%, \d+ change path", out, re.MULTILINE), out
    for name in ("VERIFY_US", "FILTER_US", "PIECE_US", "SUBREGION_US",
                 "POSTING_US", "SCAN_REACH"):
        assert re.search(rf"^  {name} = [\d.]+ ", out, re.MULTILINE), out
