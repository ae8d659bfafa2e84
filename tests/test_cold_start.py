"""What a fresh `hqfi` process imports: none of the stdlib modules that are slow to load and that it does not need.

Each check starts `python -S`, so no site-packages `.pth` file loads a module
first, and looks at `sys.modules`.  It is a check of the import graph, with no
wall-clock bound.  The checks at the end hold the package to loading each
submodule only when one of its names, or the submodule itself, is first used.
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


def test_every_public_name_loads_none_of_them():
    # import hqfi alone loads no submodule, so bind every name to load them all
    code = f"import json, sys; from hqfi import *; print(json.dumps([m for m in {SLOW!r} if m in sys.modules]))"
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


def test_import_hqfi_loads_no_submodule():
    assert _python_s("import json, sys; import hqfi; print(json.dumps(sorted(m for m in sys.modules if 'hqfi' in m)))") == [
        "hqfi"
    ]


def test_validating_the_corpus_loads_the_convexity_module_alone():
    code = (
        "import json, sys; import hqfi; before = set(sys.modules); hqfi.validate_corpus(); "
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if 'hqfi' in m)))"
    )
    assert _python_s(code) == ["hqfi.harmonic"]


_LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if 'hqfi' in m)))"


def test_a_lower_layer_loads_what_it_imports_and_not_the_campaign_layer():
    assert _python_s("import hqfi.quad; " + _LOADED) == ["hqfi", "hqfi.quad"]
    assert _python_s("from hqfi import c2; " + _LOADED) == ["hqfi", "hqfi.kernels", "hqfi.quad", "hqfi.specialfn"]


def test_a_submodule_is_an_attribute_on_first_use():
    code = """
import json, sys
import hqfi
listed = "harness" in dir(hqfi)
before = "hqfi.harness" in sys.modules
print(json.dumps([listed, before, hqfi.harness is sys.modules["hqfi.harness"], hqfi.harness.run_verify is hqfi.run_verify]))
"""
    assert _python_s(code) == [True, False, True, True]


_NAMES = """
import json, sys
import hqfi
names = [n for n in hqfi.__all__ if n != "__version__"]
values = {n: getattr(hqfi, n) for n in names}
homes = {n: sys.modules["hqfi." + home] for n, home in hqfi._HOMES.items()}
print(json.dumps({
    "names": sorted(names),
    "same": sorted(n for n in names if values[n] is getattr(homes[n], n)),
    "exported": sorted(n for n, module in homes.items() if n in module.__all__),
    "version": hqfi.__version__ == sys.modules["hqfi.harness"].TOOL_VERSION,
}))
"""


def test_each_name_is_the_object_its_home_module_binds_and_exports():
    # __all__ is the table's names and __version__, which is harness.TOOL_VERSION
    result = _python_s(_NAMES)
    assert result["same"] == result["names"]
    assert result["exported"] == result["names"]
    assert result["version"] is True


def test_star_import_binds_every_name():
    code = "import json; import hqfi; from hqfi import *; print(json.dumps([n for n in hqfi.__all__ if n not in globals()]))"
    assert _python_s(code) == []


def test_dir_covers_all_before_any_name_is_used():
    code = "import json; import hqfi; print(json.dumps(sorted(set(hqfi.__all__) - set(dir(hqfi)))))"
    assert _python_s(code) == []


def test_an_unknown_name_raises_attribute_error_naming_it():
    code = """
import json
import hqfi
try:
    hqfi.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert _python_s(code) == "module 'hqfi' has no attribute 'no_such_name'"
