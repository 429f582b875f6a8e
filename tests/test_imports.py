"""mbrlkit runs on numpy and pyyaml alone: importing any of its modules and
running the CLI loads no scipy, and the package does not declare it. Nor
does it import the benchmark that measures it."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mbrlkit

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, pkgutil, importlib, sys
import mbrlkit
names = [m.name for m in pkgutil.walk_packages(mbrlkit.__path__, "mbrlkit.")]
for name in names:
    importlib.import_module(name)
from mbrlkit.cli import cli_main
try:
    cli_main(["--help"])
except SystemExit:
    pass
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps({"modules": names, "scipy": scipy}))
"""


def test_no_scipy_on_import_or_cli():
    src = str(Path(mbrlkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "mbrlkit.cli" in report["modules"]
    assert "mbrlkit.nets" in report["modules"]
    assert report["scipy"] == []


def test_scipy_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep.strip(), maxsplit=1)[0].lower()
             for dep in project["dependencies"]]
    assert names and "scipy" not in names


# the benchmark's package and its modules, which measure mbrlkit from outside
BENCH_MODULES = {"bench", "checks", "tracing", "workloads"}


def test_no_module_imports_the_benchmark():
    paths = sorted((ROOT / "src" / "mbrlkit").rglob("*.py"))
    assert paths
    imports = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
            else:
                continue
            imports += [(path.name, name) for name in names
                        if name.split(".")[0] in BENCH_MODULES]
    assert imports == []
