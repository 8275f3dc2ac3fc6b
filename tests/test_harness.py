"""The test settings in ``pyproject.toml`` report every failure.

A failing Hypothesis test makes its pytest plugin import ``libcst``, which
emits a ``DeprecationWarning``.  Under ``filterwarnings = ["error"]`` alone
that warning aborted the whole session with ``INTERNALERROR``, so the tests
after the first Hypothesis failure never ran.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_that_fails(x):
    assert x < 0


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "FAILED test_sample.py::test_property_that_fails" in output
