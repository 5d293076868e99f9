"""Source hygiene: no unused imports, no private numpy/scipy modules, every
exception maps to an exit code, every script still matches the API, and the
benchmark still binds what it uses.

No linter is a dependency, so the checks use `ast` and `importlib`.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latscat.cli import NUMERICAL_ERRORS

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
    files = [p for d in ("src", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    unused = [f"{p.relative_to(ROOT)}:{line} {name}"
              for p in files for line, name in _unused_imports(p)]
    assert unused == []


def test_unused_import_scan_flags_a_stray_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                   "from math import pi, tau\nx = np.zeros(1) * pi\n")
    assert _unused_imports(src) == [(2, "os"), (4, "tau")]


def _private_imports(path: Path):
    """(line, dotted name) of each numpy/scipy import with a component that
    starts with '_', in the module path or in an imported name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in ("numpy", "scipy")
                  and any(part.startswith("_") for part in n.split("."))]
    return found


def test_no_private_numpy_scipy_imports():
    # private modules change without notice between releases
    private = [f"{p.relative_to(ROOT)}:{line} {name}"
               for p in sorted((ROOT / "src").rglob("*.py")) for line, name in _private_imports(p)]
    assert private == []


def test_private_import_scan_flags_private_modules(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from scipy.sparse import _sparsetools\nimport numpy._core as c\n"
                   "from scipy.linalg import lapack\nfrom scipy.linalg.blas import ztrmm\n"
                   "from ._helpers import f\nimport numpy.linalg\n")
    assert _private_imports(src) == [(1, "scipy.sparse._sparsetools"), (2, "numpy._core")]


def _function_imports(path: Path):
    """(line, function name) of each import statement inside a function."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.lineno, fn.name) for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def test_no_imports_inside_functions():
    # a module's dependencies are read off its import list
    inner = [f"{p.relative_to(ROOT)}:{line} in {name}"
             for p in sorted((ROOT / "src").rglob("*.py")) for line, name in _function_imports(p)]
    assert inner == []


def test_function_import_scan_flags_an_inner_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\n\n\ndef f():\n    from math import pi\n    return pi\n\n\n"
                   "class C:\n    def g(self):\n        def h():\n            import sys\n"
                   "        return h\n")
    assert _function_imports(src) == [(5, "f"), (12, "g"), (12, "h")]


def _latscat_imports(path: Path):
    """Names of the latscat modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["latscat" if node.level else "", node.module]))
            names = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("latscat.")}
    return found


@pytest.mark.parametrize("probe", ["escape", "resolvent", "propagate"])
def test_only_the_runner_imports_escape(probe):
    # Phi and the energy cutoff live in symbols, DecayFit in util, below every
    # module that builds on them; the probe modules sit on top, side by side,
    # each reached from cli alone
    importers = sorted(p.name for p in (ROOT / "src" / "latscat").glob("*.py")
                       if probe in _latscat_imports(p))
    assert importers == ["cli.py"]


def _called_names(path: Path):
    """Names a module calls, as a bare name f(...) or an attribute m.f(...)."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_only_the_runner_classifies():
    # whether a kernel point avoids the singular sets is the premise of the
    # wf and prop31 claims, judged once by cli before any probe runs
    callers = sorted(p.name for p in (ROOT / "src" / "latscat").glob("*.py")
                     if "classify" in _called_names(p))
    assert callers == ["cli.py"]


def test_call_scan_finds_both_forms(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from latscat import geometry\nfrom latscat.geometry import classify\n"
                   "a = classify(1)\nb = geometry.shell_points(2)\nc = [len][0](3)\n")
    assert _called_names(src) == {"classify", "shell_points"}


def _callee(func):
    """The name a call calls, bare f(...) or attribute m.f(...), else None."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defaulted_params(path: Path):
    """(label, callee, parameter, position) of each defaulted parameter of
    a module's top-level functions and methods: callee is the name a call
    of it goes by, the class's for __init__, and position counts the call's
    positional arguments, None for a keyword-only parameter. Dataclass
    fields are not parameters here: `replace` and assignment also set them."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            fns = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            fns = [(f"{node.name}.{fn.name}", node.name if fn.name == "__init__" else fn.name, fn,
                    0 if any(_callee(d) == "staticmethod" for d in fn.decorator_list) else 1)
                   for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for label, callee, fn, bound in fns:
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            found += [(label, callee, a.arg, i - bound) for i, a in enumerate(args) if i >= first]
            found += [(label, callee, a.arg, None)
                      for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def _passed_args(path: Path):
    """(callee, argument) of each call in a module, functools.partial(f, ...)
    counted as a call of f and super().__init__(...) as a call of the
    enclosing class's bases: argument is a keyword's name or a positional
    index, or '*' for a call with *args or **kwargs, which may pass any."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bases = {id(call): [_callee(b) for b in cls.bases]
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for call in ast.walk(cls) if isinstance(call, ast.Call)
             and _callee(call.func) == "__init__" and isinstance(call.func.value, ast.Call)
             and _callee(call.func.value.func) == "super"}
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if _callee(func) == "partial" and args:
            func, args = args[0], args[1:]
        star = any(isinstance(a, ast.Starred) for a in args) \
            or any(k.arg is None for k in node.keywords)
        for name in bases.get(id(node), [_callee(func)]):
            passed |= {(name, i) for i in range(len(args))} | {(name, k.arg) for k in node.keywords}
            if star:
                passed.add((name, "*"))
    return passed


def _test_only_options(modules, callers):
    """'module.function.parameter' of each defaulted parameter of `modules`
    that no call in `callers` passes."""
    passed = set().union(*(_passed_args(p) for p in callers))
    return [f"{p.stem}.{label}.{param}" for p in modules
            for label, callee, param, pos in _defaulted_params(p)
            if not {(callee, param), (callee, pos), (callee, "*")} & passed]


# options that only tests set, each kept for its reason
_TEST_ONLY_OPTIONS = {
    # a cap of 4 power steps is the one way a test reaches NormConvergenceError
    "quantize.operator_norm.max_iter",
    # the empty-cone tests move the cone's inner radius past the box
    "resolvent.one_sided_probe.r0",
}


def test_every_option_has_a_caller_outside_tests():
    # an option that only tests set is a code path no recipe, script or
    # benchmark reaches
    modules = sorted((ROOT / "src").rglob("*.py"))
    callers = modules + SCRIPTS + sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                                         if "tests" not in p.relative_to(ROOT).parts)
    assert sorted(_test_only_options(modules, callers)) == sorted(_TEST_ONLY_OPTIONS)


def test_option_scan_flags_a_test_only_option(tmp_path):
    lib, use = tmp_path / "lib.py", tmp_path / "use.py"
    lib.write_text("def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
                   "def g(u=0, v=0):\n    pass\n\n\n"
                   "class C:\n    def __init__(self, x, y=0):\n        pass\n\n"
                   "    def m(self, z=1):\n        pass\n\n"
                   "    @staticmethod\n    def s(w=1):\n        pass\n\n\n"
                   "class D(C):\n    def __init__(self, k=0):\n        super().__init__(k, y=k)\n")
    use.write_text("import functools\nfrom lib import C, f, g\n"
                   "f(0, 1)\nf(0, d=4)\nC(1)\nC(0).m(*[2])\nC.s(3)\n"
                   "h = functools.partial(g, v=1)\n")
    assert _test_only_options([lib], [lib, use]) == ["lib.f.c", "lib.g.u", "lib.D.__init__.k"]


def test_package_binds_only_its_version():
    # every caller imports the submodule it uses: the package imports and
    # re-exports nothing, its body is the docstring and __version__
    path = ROOT / "src" / "latscat" / "__init__.py"
    body = ast.parse(path.read_text(encoding="utf-8")).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert [t.id for t in body[1].targets] == ["__version__"]


def test_latscat_import_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import numpy\nimport latscat.model\nfrom latscat import escape\n"
                   "from latscat.quantize import op_h\nfrom .symbols import Symbol\n"
                   "from . import geometry, util\nfrom scipy import linalg\n")
    assert _latscat_imports(src) == {"model", "escape", "quantize", "symbols", "geometry",
                                     "util"}


def test_cli_import_loads_only_the_scipy_it_uses():
    # `latscat run` and every benchmark worker start by importing latscat.cli;
    # scipy.fft and scipy.special would add ~0.1 s and ~5 MB to each start-up
    code = ("import json, sys, latscat.cli; print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('scipy.') and not m.split('.')[1].startswith('_'))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert {m.split(".")[1] for m in loaded} == {"linalg", "sparse", "version"}
    assert "scipy.sparse.linalg" in loaded


def _exception_classes(path: Path, module):
    """The exception classes defined at the top of the module at `path`,
    taken from `module`, that module loaded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = [getattr(module, node.name) for node in tree.body
               if isinstance(node, ast.ClassDef)]
    return [cls for cls in classes if issubclass(cls, BaseException)]


def _unmapped(classes):
    """Names of the classes cli.run maps to no exit code: neither a
    ValueError (exit 2) nor a subclass of an entry of NUMERICAL_ERRORS (exit 3)."""
    return [cls.__name__ for cls in classes
            if not issubclass(cls, (ValueError, *NUMERICAL_ERRORS))]


def test_every_exception_maps_to_an_exit_code():
    # exit codes name the real cause: 2 for a bad config or a violated
    # hypothesis, 3 for a numerical failure, never a traceback
    classes = []
    for path in sorted((ROOT / "src" / "latscat").glob("*.py")):
        name = "latscat" if path.stem == "__init__" else f"latscat.{path.stem}"
        classes += _exception_classes(path, importlib.import_module(name))
    assert len(classes) >= 10
    assert _unmapped(classes) == []


def test_exception_scan_flags_an_unmapped_class(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("class FooError(RuntimeError):\n    pass\n\n\n"
                   "class BarError(ValueError):\n    pass\n\n\n"
                   "class Plain:\n    pass\n")
    assert _unmapped(_exception_classes(src, _load_script(src))) == ["FooError"]


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the scripts run main() only as __main__
    return module


def _bad_calls(path: Path, module):
    """Calls `f(...)` of a module-level callable, and `m.f(...)` of an
    attribute of a module-level module `m`, whose arguments its signature
    does not accept (or, for `m.f`, that `m` lacks), as
    'line: f(...) -> error'."""
    bad = []
    names = vars(module)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            label, target = func.id, names.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and inspect.ismodule(names.get(func.value.id)):
            label = f"{func.value.id}.{func.attr}"
            target = getattr(names[func.value.id], func.attr, None)
            if target is None:
                bad.append(f"{node.lineno}: {label}(...) -> no such attribute")
                continue
        else:
            continue
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
            bad.append(f"{node.lineno}: {label}(...) -> {exc}")
    return bad


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports_and_calls_match_the_api(path):
    module = _load_script(path)
    assert callable(getattr(module, "main", None))
    assert _bad_calls(path, module) == []


def test_script_call_check_flags_an_unknown_keyword(tmp_path):
    src = tmp_path / "s.py"
    src.write_text("from latscat import escape\nfrom latscat.escape import EscapeLadder\n\n\n"
                   "def main():\n"
                   "    EscapeLadder(stencil=None, x2=1.0, xi2=0.0, delta1=0.1, delta2=0.1,\n"
                   "                 h=0.5, no_such_field=1)\n"
                   "    escape.verify_transport(None, 0)\n"
                   "    escape.verify_transport(None, 0, jobs=2)\n"
                   "    escape.no_such_function()\n")
    bad = _bad_calls(src, _load_script(src))
    assert len(bad) == 3
    assert bad[0].startswith("6: EscapeLadder(...)") and "no_such_field" in bad[0]
    assert bad[1].startswith("9: escape.verify_transport(...)") and "jobs" in bad[1]
    assert bad[2] == "10: escape.no_such_function(...) -> no such attribute"


def test_benchmark_bindings(tmp_path, monkeypatch):
    # perfbench/ builds its workloads from latscat's API and wraps its layers
    # by name; a renamed function or method fails here with AttributeError
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import DEFAULT_SEED, WORKLOADS, checks, instrument, spans, workloads

    # the operations run only in a pass, so their calls are checked from source
    assert _bad_calls(ROOT / "perfbench" / "workloads.py", workloads) == []
    reference = checks.load_json()
    for name in WORKLOADS:
        ops = workloads.build(name, DEFAULT_SEED, tmp_path, reference)
        assert ops and all(callable(fn) for _, fn in ops)
    with instrument.Instrumentation(spans.Tracer()):
        pass
