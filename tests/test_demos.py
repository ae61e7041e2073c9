"""The demos and the README library example run against the package as shipped."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def _readme_library_snippet() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([sys.executable, str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_example_runs():
    proc = _run([sys.executable, "-c", _readme_library_snippet()])
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout
