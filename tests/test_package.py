"""Package-wide properties of the library source and its import."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spin7"


def _asserts(path):
    """(enclosing function, line) of every ``assert`` in a source file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((function, child.lineno))
            name = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return found


def test_library_states_its_claims_with_named_errors():
    # an assert vanishes under python -O; the one left narrows a type for
    # the checker after the loop of forms.parse_form
    found = {f"{path.name}:{function}"
             for path in sorted(PACKAGE.glob("*.py"))
             for function, _ in _asserts(path)}
    assert found == {"forms.py:parse_form"}


def test_import_builds_no_table():
    # the cached tables of the forms and the splits are built on first
    # use, so importing the exact layers costs no set-up time
    script = ("import spin7.cli, spin7.forms, spin7.splits, spin7.linalg\n"
              "caches = {name: f.cache_info().currsize\n"
              "          for module in (spin7.forms, spin7.splits,\n"
              "                         spin7.linalg)\n"
              "          for name, f in vars(module).items()\n"
              "          if hasattr(f, 'cache_info')}\n"
              "assert {'_star_negated', '_star_columns', '_monomial_action',\n"
              "        '_monomial_rotation', '_monomial_star_wedge'} \\\n"
              "    <= set(caches)\n"
              "assert not any(caches.values()), caches\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
