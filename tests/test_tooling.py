"""The test suite's own set-up: a failing property fails one test, not the run."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent

FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x < 10


def test_passing():
    pass
'''


def test_a_failing_property_fails_one_test(tmp_path):
    # the file runs under this suite's conftest and warning filters; a failing property
    # makes Hypothesis look for a patch to suggest, which once stopped the session
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_one_fails.py").write_text(FILE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_one_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
