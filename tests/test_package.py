"""The package surface: its exports, the README's Python API example and
the names the benchmark's tracer wraps."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import becr

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse(Path(becr.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = {name for name in imported if not name.startswith("_")}
    assert len(becr.__all__) == len(set(becr.__all__))
    namespace = {}
    exec("from becr import *", namespace)  # fails on a name that is missing
    assert set(becr.__all__) == public == namespace.keys() - {"__builtins__"}


def test_readme_python_api_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-X", "warn_default_encoding",
         "-c", code],
        capture_output=True, encoding="utf-8", env=env, cwd=ROOT,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1/2 1/3 2/3\n3/8\n"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: newer syntax, such as
    # except* or PEP 695 generics, fails here under any interpreter.  Stdlib
    # APIs newer than 3.10 are left to a run on 3.10 itself.
    paths = sorted((ROOT / "src" / "becr").rglob("*.py"))
    paths += sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_traced_names_are_package_callables():
    # the benchmark's tracer wraps each "module.function" in its TRACED
    # tuple, looked up in becr.<module>: a rename or deletion in src breaks
    # it.  The tuple is read with ast, so the benchmark code is not run
    tree = ast.parse(
        (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    assert traced
    for qualified in traced:
        module_name, fname = qualified.split(".")
        module = importlib.import_module(f"becr.{module_name}")
        assert callable(getattr(module, fname, None)), qualified
