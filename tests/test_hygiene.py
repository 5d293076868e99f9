"""Source hygiene: no unused imports, and every script still matches the API.

No linter is a dependency, so both checks use `ast` and `importlib`.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(path: Path):
    """(line, name) of each name a module imports and never mentions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_unused_imports():
    # a package __init__ imports to re-export
    files = [p for d in ("src", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = [f"{p.relative_to(ROOT)}:{line} {name}"
              for p in files for line, name in _unused_imports(p)]
    assert unused == []


def test_unused_import_scan_flags_a_stray_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                   "from math import pi, tau\nx = np.zeros(1) * pi\n")
    assert _unused_imports(src) == [(2, "os"), (4, "tau")]


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the scripts run main() only as __main__
    return module


def _bad_calls(path: Path, module):
    """Calls `f(...)` of a module-level callable whose arguments its
    signature does not accept, as 'line: f(...) -> error'."""
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        target = vars(module).get(node.func.id)
        if not callable(target) or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        try:
            sig = inspect.signature(target)
        except (TypeError, ValueError):
            continue  # builtins without a signature
        try:
            sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            bad.append(f"{node.lineno}: {node.func.id}(...) -> {exc}")
    return bad


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports_and_calls_match_the_api(path):
    module = _load_script(path)
    assert callable(getattr(module, "main", None))
    assert _bad_calls(path, module) == []


def test_script_call_check_flags_an_unknown_keyword(tmp_path):
    src = tmp_path / "s.py"
    src.write_text("from latscat.escape import EscapeLadder\n\n\ndef main():\n"
                   "    EscapeLadder(stencil=None, x2=1.0, xi2=0.0, delta1=0.1, delta2=0.1,\n"
                   "                 h=0.5, no_such_field=1)\n")
    bad = _bad_calls(src, _load_script(src))
    assert len(bad) == 1 and "no_such_field" in bad[0]
