"""The README's library example runs against this checkout's ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import prsplit

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_converges():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    src = str(Path(prsplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "converged", proc.stdout
