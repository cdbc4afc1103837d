"""The paper-output contract: ``repro-experiments`` stdout is the
committed ``experiment_report.txt``, byte for byte, under either engine
core.

Every fast path is pinned to the object engines elsewhere; this test
pins the whole pipeline to the published numbers, so regenerating the
report is a deliberate, reviewed act.  Each run is a fresh process with
no disk cache and no ledger (the cold serial path).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("core", ["array", "object"])
def test_stdout_matches_committed_report(core, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness.runner", "--no-ledger",
         "--engine-core", core],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    expected = (ROOT / "experiment_report.txt").read_text(encoding="utf-8")
    assert result.stdout.decode("utf-8") == expected
    assert f"engine core      : {core}" in result.stderr.decode("utf-8")
    assert not list(tmp_path.iterdir())  # no cache or ledger left behind
