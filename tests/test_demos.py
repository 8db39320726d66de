"""The demos print what they printed when their outputs were frozen.

Each script under demos/ runs in its own interpreter on this checkout's
src/, and its stdout must equal tests/fixtures/demos/<name>.txt byte for
byte.  After an intended change to a demo's output, refresh the file with
`PYTHONPATH=src python3 demos/<name>.py > tests/fixtures/demos/<name>.txt`.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_frozen_output():
    frozen = sorted(p.stem for p in (ROOT / "tests" / "fixtures" / "demos").glob("*.txt"))
    assert frozen == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    expected = (ROOT / "tests" / "fixtures" / "demos" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected
