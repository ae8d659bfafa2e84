"""What a fresh `hqfi` process imports: none of the stdlib modules that are slow to load and that it does not need.

Each check starts `python -S`, so no site-packages `.pth` file loads a module
first, and looks at `sys.modules`.  It is a check of the import graph, with no
wall-clock bound.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hqfi.harness import run_checkfn

SRC = Path(__file__).resolve().parent.parent / "src"
# dataclasses pulls in inspect, and inspect ast and dis; datetime and typing are slow on their own
SLOW = ("dataclasses", "datetime", "typing", "inspect", "ast")


def _python_s(code: str, *args: str) -> dict:
    """Run `code` under `python -S` with src on the path; it prints one JSON value."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout)


def test_a_bare_interpreter_loads_none_of_them():
    # else the checks below would hold whatever hqfi imports
    assert _python_s(f"import json, sys; print(json.dumps([m for m in {SLOW!r} if m in sys.modules]))") == []


@pytest.mark.parametrize("module", ["hqfi", "hqfi.cli"])
def test_import_loads_none_of_them(module):
    code = f"import json, sys; import {module}; print(json.dumps([m for m in {SLOW!r} if m in sys.modules]))"
    assert _python_s(code) == []


_CHECKFN = """
import contextlib, io, json, sys
import hqfi.cli
before = "ast" in sys.modules
runs = []
for fn in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hqfi.cli.main(["checkfn", "--fn=" + fn, "--domain", "1:2", "--n", "5"])
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"before": before, "after": "ast" in sys.modules, "runs": runs}))
"""


def test_checkfn_loads_ast_itself_and_parses_and_rejects_as_before():
    result = _python_s(_CHECKFN, "x*ln(x) - x^2", "x*(", "__import__('os')", "ln(x-2)")
    assert not result["before"] and result["after"]
    (ok, ok_out, ok_err), parse, name, domain = result["runs"]
    assert ok == 0 and ok_err == ""
    assert json.loads(ok_out) == run_checkfn("x*ln(x) - x^2", 1.0, 2.0, 5, "quasi")
    assert parse[0] == 2 and "cannot parse expression 'x*('" in parse[2]
    assert name[0] == 2 and "is not allowed: use x or u, numbers" in name[2]
    assert domain[0] == 2 and "expression 'ln(x-2)' has no real value at u = " in domain[2]
