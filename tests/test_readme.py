"""The README's quick start runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_readme_quick_start_prints_its_claims():
    """The README's one python block runs in a fresh interpreter. The first
    line it prints is the optimality ratio, at most 1.0, and the last ends
    in the 16 ticks that evaluating 8 users on both tiers costs."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert float(lines[0]) <= 1.0
    assert lines[-1].split()[-1] == "16"
