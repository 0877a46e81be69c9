"""Every mutant of `mutants.py` is killed by the Tier-1 tests (opt-in: pytest -m mutants).

Each run copies the tree to a temporary directory, applies one mutant and
runs its listed killer there with `-x`.  The killer is a Tier-1 test, so its
failure is a failure of the Tier-1 command.  Where the killer passes, the
whole Tier-1 command runs with `-x` to name what else fails first, if
anything, and the mutant fails: the list stays a true record of which test
catches which fault.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "*.egg-info", "BENCH_*.json"
)


@pytest.mark.mutants
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(tmp_path, mutant):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT, tree, ignore=SKIP)
    path = tree / "src" / "bigrade" / mutant.path
    text = path.read_text()
    assert text.count(mutant.old) == 1, f"{mutant.old!r} is not one text of {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new))

    def run_pytest(*args):
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True,
            text=True,
        )

    if run_pytest(mutant.killer).returncode != 1:
        tier1 = run_pytest("--continue-on-collection-errors")
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", tier1.stdout, re.M)
        pytest.fail(f"{mutant.name} passes {mutant.killer}; Tier-1 first fails on {failed[:1]}")
