"""Every slspec name that the benchmark harness in perfbench/ uses still resolves.

The harness reaches slspec by name: tracing.py wraps functions looked up as
module attributes, micro.py imports and calls public names, and runner.py's
set-up probe and job command lines name CLI functions and flags.  A rename
that misses one of them breaks only a benchmark run, so these tests read the
harness's files as text, parse them, and look every name up.  Nothing under
perfbench/ is imported, executed or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from slspec.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parsed(name):
    return ast.parse((PERFBENCH / name).read_text(), name)


def assigned(tree, name):
    """The literal value of the module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no assignment to {name}")


def slspec_names(tree):
    """{local name: object} of every name the code imports from slspec.

    `import slspec.cli as cli` binds the module, `from slspec.random import
    f` the function; an import of a name that is gone raises here.
    """
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "slspec":
                    names[a.asname or a.name] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slspec":
            module = importlib.import_module(node.module)
            for a in node.names:
                assert hasattr(module, a.name), f"{node.module}.{a.name}"
                names[a.asname or a.name] = getattr(module, a.name)
    return names


def test_traced_functions_resolve():
    tree = parsed("tracing.py")
    entries = assigned(tree, "TRACED") + assigned(tree, "COUNT_ONLY")
    assert entries
    for module, name, *_ in entries:
        assert callable(getattr(importlib.import_module(f"slspec.{module}"), name, None)), (
            f"slspec.{module}.{name}")


def test_set_up_probe_names_resolve():
    probe = ast.parse(assigned(parsed("runner.py"), "SETUP_CODE"))
    names = slspec_names(probe)
    used = [(node.value.id, node.attr) for node in ast.walk(probe)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in names]
    assert {"load_config", "parse_problem_block", "parse_step_block"} <= {a for _, a in used}
    assert "ensemble_from_json" in names
    for local, attr in used:
        assert callable(getattr(names[local], attr, None)), f"{local}.{attr}"


def test_job_command_line_flags_exist():
    # runner._argv builds each job's command line from these literals
    (argv,) = [node for node in parsed("runner.py").body
               if isinstance(node, ast.FunctionDef) and node.name == "_argv"]
    flags = {node.value for node in ast.walk(argv)
             if isinstance(node, ast.Constant) and str(node.value).startswith("--")}
    assert "--workers" in flags
    known = build_parser()._option_string_actions
    assert not flags - set(known)


def test_micro_timings_call_what_exists():
    tree = parsed("micro.py")
    names = slspec_names(tree)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in names]
    assert "workers" in {k.arg for c in calls for k in c.keywords}
    for call in calls:
        sig = inspect.signature(names[call.func.id])
        try:
            sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"line {call.lineno}: {call.func.id}{sig}: {exc}")
