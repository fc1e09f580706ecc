"""The package surface: its exports, its record types, what it loads at
start-up, the README's Python API example and the names the benchmark's
tracer wraps."""
import ast
import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import becr
from becr import (
    CoinTossSpec,
    ComparisonReport,
    ConceptLattice,
    FormalConcept,
    FormalContext,
    ScoreRow,
    emit_csv,
)
from becr.bench import REPORT_COLUMNS

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


# each record type, its fields in constructor order, one value per field,
# the name of a field to change and a value that differs there, and
# whether it is frozen (immutable and hashable)
RECORDS = [
    (FormalContext, ("objects", "attributes", "rows"),
     (("g1", "g2"), ("a", "b"), (1, 3)), "rows", (1, 2), True),
    (FormalConcept, ("extent", "intent"), (3, 1), "extent", 1, True),
    (CoinTossSpec, ("n_objects", "n_attributes", "density", "seed"),
     (3, 4, 0.5, 7), "seed", 8, True),
    (ConceptLattice, ("concepts", "upper_covers"),
     ([FormalConcept(1, 0)], [()]), "upper_covers", [(0,)], False),
    (ScoreRow, REPORT_COLUMNS,
     (4, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 8),
      1, 2, 0, 150, 90), "t_stability_ns", 91, False),
    (ComparisonReport, ("rows", "pearson_xi", "mean_time_becr_ns",
                        "mean_time_stability_ns", "dataset_stats"),
     ([ScoreRow(0, 1, 1)], None, 1.5, 2.5, (1, 1, 1, 1, 1.0)),
     "pearson_xi", 0.5, False),
]


@pytest.mark.parametrize("cls, names, values, changed, other, frozen",
                         RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values, changed, other, frozen):
    record = cls(**dict(zip(names, values)))
    assert [getattr(record, name) for name in names] == list(values)
    assert record == cls(*values)
    assert record != values  # a record equals records of its own class only
    altered = cls(**{**dict(zip(names, values)), changed: other})
    assert record != altered
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    for clone in (copy.copy, copy.deepcopy,
                  lambda r: pickle.loads(pickle.dumps(r))):
        assert clone(record) == record
    if frozen:
        assert hash(record) == hash(cls(*values))
        assert len({record, cls(*values), altered}) == 2
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, other)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in names] == list(values)
    else:
        setattr(record, changed, other)
        assert record == altered


def test_report_columns_are_the_score_row_fields_and_csv_header():
    report = ComparisonReport([], None, 0.0, 0.0, (0, 0, 0, 1, 0.0))
    assert emit_csv(report) == ",".join(REPORT_COLUMNS) + "\n"
    assert REPORT_COLUMNS[:3] == ("concept_id", "extent_size", "intent_size")
    row = ScoreRow(0, 1, 2)  # the index fields default to not computed
    assert [getattr(row, c) for c in REPORT_COLUMNS[3:]] == [None] * 7 + [0, 0]


def _source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize("args", [["-c", "import becr"],
                                  ["-m", "becr", "--help"]])
def test_start_up_loads_no_code_generation_or_csv(args):
    # the record types are plain classes, so dataclasses (and the inspect
    # module it loads) stay out, and csv loads only where CSV is read or
    # written.  -S keeps site-packages' start-up hooks out of the list
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        capture_output=True, encoding="utf-8", env=_source_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "becr.bench" in loaded
    assert loaded & {"dataclasses", "inspect", "csv"} == set()


def test_readme_python_api_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = _source_env()
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
