"""A failing hypothesis test shows its example under ``python -W error``.

The suite runs with every warning an error.  ``pyproject.toml`` ignores the
one deprecation that hypothesis's report hook raises when a test fails; this
test runs a one-test file that fails for ``x = 5`` through pytest with the
repository's settings and reads the report.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_x(x):
    assert x < 5
'''


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    (tmp_path / "test_x.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_x.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
