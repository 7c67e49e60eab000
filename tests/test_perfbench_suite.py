"""The benchmark's own tests (``perfbench/tests``), run in a fresh interpreter.

``tests`` and ``perfbench/tests`` each have a ``conftest.py``, and the two
cannot share one pytest session.  Running the benchmark's suite here makes a
program change that breaks what it relies on (``simulate``'s defaults,
``generate(spec)``, ``ReuseStore.eviction_log``) fail with the rest of the
suite.  The child runs with every warning an error, but without
``PYTHONWARNDEFAULTENCODING``: the benchmark's text I/O names no encoding.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNDEFAULTENCODING"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    command = [sys.executable, "-W", "error", "-m", "pytest"]
    result = subprocess.run(
        [*command, "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
