"""The repository's pytest configuration: every warning is an error, yet a failing @given test is reported.

pyproject.toml turns warnings into errors.  hypothesis reports a
falsifying example through mypy_extensions.TypedDict, whose
DeprecationWarning, raised inside a report hook, stopped the whole
session with INTERNALERROR at the first failing property; the config
ignores that one warning.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_lets_the_session_run_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout and "x=5" in run.stdout
