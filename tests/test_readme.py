"""The README's examples run as written: the Python quick tour and the JSON config."""

import ast
import json
import math
import re
from pathlib import Path

import pytest

from slspec.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang, after):
    """The first ```lang block of the README after the heading line `after`."""
    tail = README[README.index(after):]
    return re.search(rf"^```{lang}\n(.*?)^```$", tail, re.M | re.S).group(1)


def test_python_quick_tour_runs():
    code, ns, values = _block("python", "## Library quick tour"), {}, []
    # run it statement by statement, keeping the value of each bare expression
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), ns))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), ns)
    eigenvalues, hits = values
    assert len(eigenvalues) == 4
    assert all(math.isclose(e, n * n, rel_tol=1e-6) for e, n in zip(eigenvalues, (1, 2, 3, 4)))
    assert hits == ns["rep"].hits == 1000


def _config(tmp_path, doc):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["transfer", "eigs", "dichotomy", "montecarlo"])
def test_config_example_runs(command, tmp_path):
    doc = json.loads(_block("json", "### Experiment config"))
    out = tmp_path / f"{command}.json"
    assert main(["--quiet", "--config", _config(tmp_path, doc), "--output", str(out),
                 command]) == 0
    assert json.loads(out.read_text())["command"] == command


def test_config_example_runs_degenerate_without_its_interaction(tmp_path, capsys):
    doc = json.loads(_block("json", "### Experiment config"))
    argv = ["--quiet", "--config", _config(tmp_path, doc), "--output",
            str(tmp_path / "built.json"), "degenerate"]
    assert main(argv) == 2
    assert "without interactions" in capsys.readouterr().err
    doc["problem"]["interactions"] = []
    _config(tmp_path, doc)
    assert main(argv) == 0
    assert json.loads((tmp_path / "built.json").read_text())["problem"]["interactions"]
