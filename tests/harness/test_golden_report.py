"""The paper-output contract: ``repro-experiments`` stdout is the
committed ``experiment_report.txt``, byte for byte, under either engine
core, cold or replayed from the disk cache, with the ledger off or on.

Every fast path is pinned to the object engines elsewhere; this test
pins the whole pipeline to the published numbers, so regenerating the
report is a deliberate, reviewed act.  Each run is a fresh process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = (ROOT / "experiment_report.txt").read_text(encoding="utf-8")


def run_report(cwd, *args):
    """One ``repro-experiments`` process: (stdout, stderr) as text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness.runner", *args],
        cwd=cwd, env=env, capture_output=True, check=True,
    )
    return result.stdout.decode("utf-8"), result.stderr.decode("utf-8")


@pytest.mark.parametrize("core", ["array", "object"])
def test_stdout_matches_committed_report(core, tmp_path):
    """The cold serial path: no disk cache, no ledger."""
    stdout, stderr = run_report(tmp_path, "--no-ledger",
                                "--engine-core", core)
    assert stdout == EXPECTED
    assert f"engine core      : {core}" in stderr
    assert not list(tmp_path.iterdir())  # no cache or ledger left behind


def test_cached_ledgered_runs_match_committed_report(tmp_path):
    """A disk cache and the ledger on, twice: the cold run and the warm
    replay print the same report, and the replay simulates nothing."""
    args = ("--cache-dir", str(tmp_path / "cache"),
            "--ledger", str(tmp_path / "runs.db"), "--engine-core", "array")
    cold_stdout, _ = run_report(tmp_path, *args)
    warm_stdout, warm_stderr = run_report(tmp_path, *args)
    assert cold_stdout == EXPECTED
    assert warm_stdout == EXPECTED
    assert "simulated points : 0 " in warm_stderr
