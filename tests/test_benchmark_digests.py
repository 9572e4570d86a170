"""One short benchmark run per workload, input seed 0, and report-mid on
input seeds 1-4 too: every output must match its digest pinned in
`perfbench/digests.json`, so a change to any output byte fails here and not
only in the full benchmark. Report-mid is the only workload that runs EB, so
its extra seeds pin EB's report bytes on more than one graph."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def assert_outputs_match_pinned_digests(workload, seed):
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), result.stdout


@pytest.mark.parametrize("workload", ["corpus-large", "report-mid",
                                      "report-large"])
def test_seed_zero_outputs_match_pinned_digests(workload):
    assert_outputs_match_pinned_digests(workload, 0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_report_mid_outputs_match_pinned_digests(seed):
    assert_outputs_match_pinned_digests("report-mid", seed)
