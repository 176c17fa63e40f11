import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, cwd=None, stdout=subprocess.PIPE):
    """A fresh interpreter with this checkout's src/ on its path; stdout
    may be any file descriptor, stderr is captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd or ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)
