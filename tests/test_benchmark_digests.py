"""One short benchmark run per workload, input seed 0: every output must
match its digest pinned in `perfbench/digests.json`, so a change to any
output byte fails here and not only in the full benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["corpus-large", "report-mid",
                                      "report-large"])
def test_seed_zero_outputs_match_pinned_digests(workload):
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), result.stdout
