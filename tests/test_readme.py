"""The README's "Library use" snippet runs, its pipeline config parses, and
its output tree names the feature and map files of a run."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from test_cli import TINY_ANNULUS, write_config
from uotmorph.cli import main
from uotmorph.pipeline import parse_config

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading`` in the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_snippet():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    snippet = readme_block("## Library use", "python")
    run = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    objective, image = run.stdout.splitlines()
    assert abs(float(objective) - 0.8) <= 1e-12
    assert image == "[[ 1. -1.]]"


def test_pipeline_config_example_parses(tmp_path):
    raw = json.loads(readme_block("### Pipeline config", "json"))
    cfg = parse_config(raw, base_dir=str(tmp_path))
    assert cfg.output_dir == os.path.join(tmp_path, "out")
    assert cfg.lambdas == (0.0, 10.0, 4000.0)


def expand(names: str) -> set[str]:
    """``"a.x, {b,c}.y"`` -> ``{"a.x", "b.y", "c.y"}``."""
    out = set()
    for name in names.split(", "):
        parts = re.split(r"\{(.*?)\}", name)  # odd entries hold the alternatives
        choices = [p.split(",") if i % 2 else [p] for i, p in enumerate(parts)]
        out.update(map("".join, itertools.product(*choices)))
    return out


def test_output_tree_lists_feature_and_map_files(tmp_path):
    listed = {}
    for line in readme_block("The output tree is", "").splitlines():
        entry = line.split("#")[0].strip()
        if entry.startswith(("features/", "maps/")):
            parent, names = entry.rsplit("/", 1)
            listed[parent] = expand(names)
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    subjects = [f"s{k:04d}" for k in range(TINY_ANNULUS["synth"]["n_subjects"])]
    feature_dir = out / "features" / "lambda=150.0"
    assert {p.name for p in feature_dir.iterdir() if not p.name.startswith(".")} == {
        name.replace("<subject>", sid)
        for name in listed["features/lambda=<v>"] for sid in subjects}
    map_dir = out / "maps" / "lambda=150.0" / "total_mass"
    assert {p.name for p in map_dir.iterdir() if not p.name.startswith(".")} == (
        listed["maps/lambda=<v>/<covariate>"])
