"""Every seeded stream and exact result stays as the golden digests pin it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_stream_digests_match_the_golden_file():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "stream_digests.py"),
         "--check", os.path.join(ROOT, "tests", "stream_digests.txt")],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
