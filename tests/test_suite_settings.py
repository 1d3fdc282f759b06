"""The pytest settings in pyproject.toml, run on a suite of two tests."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_A_PASS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test():
    pass
'''


def test_a_failing_property_is_reported_and_the_suite_goes_on(tmp_path):
    """Warnings are errors, yet Hypothesis's report of a falsifying example
    ends as one failed test, not an INTERNALERROR that stops the run."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_A_PASS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
