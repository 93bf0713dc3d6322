"""The README's "Library use" snippet runs and its pipeline config parses."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from uotmorph.pipeline import parse_config

ROOT = Path(__file__).resolve().parent.parent


def library_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_snippet():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", library_snippet()], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    objective, image = run.stdout.splitlines()
    assert abs(float(objective) - 0.8) <= 1e-12
    assert image == "[[ 1. -1.]]"


def test_pipeline_config_example_parses(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Pipeline config", 1)[1]
    raw = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    cfg = parse_config(raw, base_dir=str(tmp_path))
    assert cfg.output_dir == os.path.join(tmp_path, "out")
    assert cfg.lambdas == (0.0, 10.0, 4000.0)
