"""Checks on the source tree and on the test session itself."""
import os
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import schedlab

ROOT = Path(__file__).resolve().parents[1]

#: Significant tokens a module of ``src/schedlab`` may hold.  CPython 3.11's
#: parser doubles its token array at 8,192 tokens, which costs memory each
#: time a module past it is compiled from source.
TOKEN_LIMIT = 6500

_INSIGNIFICANT = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}

_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_no_module_nears_the_parser_cliff():
    counts = {}
    for path in sorted((ROOT / "src" / "schedlab").glob("*.py")):
        with path.open("rb") as fh:
            counts[path.name] = sum(token.type not in _INSIGNIFICANT
                                    for token in tokenize.tokenize(fh.readline))
    assert "core.py" in counts
    assert max(counts.values()) <= TOKEN_LIMIT, counts


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    """A failing ``@given`` test is reported as a failure and the tests
    after it run, under this suite's conftest and warning filters."""
    (tmp_path / "test_probe.py").write_text(_PROBE)
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    src = str(Path(schedlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # pytest rewrites the asserts of every module of a plugin's package,
    # hypothesis's included, and compiles them again in each process that
    # may not write bytecode; the probe needs no rewritten assert
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
