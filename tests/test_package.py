"""The package's import paths, one per name, each at its defining module;
its import layers; and the README's account of them and of the config fields."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from ringform.cli import _FIELDS
from ringform.core import SwarmState
from ringform.formation import FormationConfig, run_formation, summarize
from ringform.spectral import EstimationParams

ROOT = Path(__file__).resolve().parents[1]
# The package's modules, each above those it may import from.
LAYERS = ["core", "spectral", "estimation", "formation", "harness", "cli"]


def test_root_binds_only_the_version():
    # A fresh interpreter: the test session imports the submodules into it.
    code = ("import json, ringform; print(json.dumps([ringform.__version__, "
            "sorted(n for n in vars(ringform) if not n.startswith('_'))]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert json.loads(out.stdout) == ["0.1.0", []]


def test_each_module_imports_only_the_layers_below_it():
    paths = sorted((ROOT / "src" / "ringform").glob("*.py"))
    assert {path.stem for path in paths} == {*LAYERS, "__init__"}
    for path in paths:
        imported = {node.module.split(".")[0] for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
        below = LAYERS[:LAYERS.index(path.stem)] if path.stem in LAYERS else []
        assert imported <= set(below), f"{path.stem} imports {sorted(imported - set(below))}"


def test_readme_api_references_resolve():
    cited = set(re.findall(r"\bringform\.(\w+)\.(\w+)\b", (ROOT / "README.md").read_text()))
    assert cited
    for module, name in sorted(cited):
        assert hasattr(importlib.import_module(f"ringform.{module}"), name), \
            f"README cites ringform.{module}.{name}"


# Text or code of each parameter rule the library states (each once), which the
# CLI must not restate: it names the YAML path of a ParameterError's ``name``.
LIBRARY_RULES = ["must lie in (0, 1)", "must be positive", "must be one of {STRATEGIES}",
                 "must exceed the stop window", "must be 1 or 2", "vertex indices out of range",
                 "polygon does not close", "must be strictly increasing",
                 "must be at least 2, got", "must be at least the smallest n",
                 "must be at least 1, got", "the stream keys' range",
                 "must be >= {smallest}, got"]
CLI_COPIES = ["_POSITIVE", "_STRATEGY", "STRATEGIES", "polygon_closes", "CLOSURE_TOL",
              "in (1, 2)", "out of range", "does not close", "topology: ",
              "sweep_n_max >= ", "sweep_keys_fit", "2 ** 32"]
# Wordings of rules now written once in the library, each gone from ``src/``.
REMOVED = ["order must be >= 1", "chain order must be", "at least one movable robot",
           "bad n_prime range", "needs n >= 2 robots"]


def test_each_parameter_rule_is_written_once_and_not_in_the_cli():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "ringform").glob("*.py")}
    for rule in LIBRARY_RULES:
        assert sum(text.count(rule) for text in sources.values()) == 1, rule
    for text in LIBRARY_RULES + CLI_COPIES:
        assert text not in sources["cli"], f"cli.py restates {text!r}"
    for text in REMOVED:
        assert not any(text in source for source in sources.values()), text


def test_readme_field_table_is_the_config_schema():
    readme = (ROOT / "README.md").read_text()
    schema = readme[readme.index("### Config schema"):readme.index("### Output files")]
    rows = re.findall(r"^\| `([\w.]+)` \| [^|]+ \| ([a-z, ]+) \|", schema, re.MULTILINE)
    assert len(rows) == len(_FIELDS)
    assert dict((path, tuple(modes.split(", "))) for path, modes in rows) == {
        f.metadata["path"]: f.metadata["modes"] for f in _FIELDS.values()}


def test_readme_figure_table_is_the_summary():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("### Run figures"):readme.index("### Determinism")]
    config = FormationConfig(3, (0, 1, 2), [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                             EstimationParams(alpha=0.5, dt=0.1))
    trace = run_formation(SwarmState.at_rest(np.zeros((3, 2))), config, 1)
    assert re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE) == list(summarize(trace, config))
