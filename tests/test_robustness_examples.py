"""Tests for the upload-cv robustness check and example-script smoke runs."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.robustness import upload_cv_consistency
from repro.errors import InsufficientDataError

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestUploadConsistency:
    def test_att_consistent(self, tiny_dataset):
        """Section 5.1: download- and upload-based cv agree in rank for
        DSL/fiber ISPs (fiber is symmetric, DSL slow both ways)."""
        result = upload_cv_consistency(tiny_dataset, "new-orleans", "att")
        assert result.n_block_groups >= 10
        assert result.is_consistent

    def test_cox_positive_correlation(self, tiny_dataset):
        result = upload_cv_consistency(tiny_dataset, "new-orleans", "cox")
        # Cable upload caps compress the spread, but rank agreement stays
        # positive.
        assert result.spearman_rho > 0.0

    def test_insufficient_data_raises(self):
        from repro.dataset import BroadbandDataset

        with pytest.raises(InsufficientDataError):
            upload_cv_consistency(BroadbandDataset(()), "x", "att")


@pytest.mark.parametrize("script", ["quickstart.py", "tcp_live_scrape.py"])
def test_example_scripts_run(script):
    """The fast examples must run end to end as real subprocesses."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()


def test_experiments_cli_help():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0
    assert "Regenerate" in completed.stdout
