"""The suite's own pytest settings.

`pyproject.toml` turns warnings into errors. A warning raised inside
pytest's machinery, rather than in a test, aborts the session with an
INTERNALERROR, and every later test silently never runs. hypothesis
imports libcst to report a failing test, and that import warns.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
