"""The demos run to completion and print the bytes they always printed."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's standard output; regenerate only after a
# deliberate change to what a demo shows
DEMO_STDOUT_SHA = {
    "diagnose.py": "66ab3153f0b07c9df66e9b8d6431f919725b7f7b4886834b92b0d300b25cf866",
    "edit_session.py": "1c25d132c7383614b65159969851005f7896520b80f0bc5e750fa29bd631ba31",
    "minimize_tour.py": "0a4402cbe761d26f4d75f8c688a005b1ca0119a4917448fb5033e522183cbd28",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT_SHA) == sorted(
        name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA))
def test_demo_prints_its_pinned_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA[name]
