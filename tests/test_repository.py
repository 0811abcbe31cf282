import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    run = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                         capture_output=True, text=True)
    if run.returncode:
        pytest.skip(f"git cannot read this checkout: {run.stderr.strip()}")
    assert run.stdout == ""
