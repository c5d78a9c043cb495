"""The demos print the same bytes as before.

Each demo runs in-process and its stdout is compared by sha256 with a digest
recorded from the release the demo was written against.  Demo 03 is left
out: it takes about 9 s.
"""
import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_DIGESTS = {
    "01_online_scaling":
        "72b22fcb63a332ceaa0c33d995ef43ed3165229f08ddb2bbb3344762dcb0e448",
    "02_feasibility_certificate":
        "b9bd3be178f84d3b3936f8a2c6d6c021480e20399f5f6c4e5034b6f4daf7c8a9",
    "04_common_deadline_phases":
        "6240239ba9f71f459a8a04f6d9a74a2a130bc134a02c12d129cba57733a213be",
    "05_throughput_matching":
        "b69c83ba83c00439cce006b9d83d50c9297e5751c1a5d681e71e7ab33d0cc3bf",
}


def demo_stdout_digest(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_demo_stdout_unchanged(name):
    assert demo_stdout_digest(name) == STDOUT_DIGESTS[name]
