"""src/bellsim stays within its budget of 2750 lines, counted as the benchmark counts src_bellsim_lines.

New features are paid for by deletions; the benchmark records the count in
each run's environment, and this test holds the ceiling between runs.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsim"
BUDGET = 2750


def test_src_bellsim_lines_stay_within_the_budget():
    # perfbench/run.py: the line count (str.splitlines) of every src/bellsim/*.py file, summed
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.glob("*.py")))
    assert lines <= BUDGET
