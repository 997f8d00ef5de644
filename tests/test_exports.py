import ast
import importlib
import pathlib

MODULES = ["sigma2", "sigma2.elliptic", "sigma2.sigma", "sigma2.strata",
           "sigma2.heat", "sigma2.inversion", "sigma2.lattice",
           "sigma2.spectral", "sigma2.verify"]


def test_every_export_resolves():
    missing = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            try:
                getattr(mod, attr)
            except AttributeError:
                missing.append(f"{name}.{attr}")
    assert not missing


def test_no_unused_imports():
    """Every name a module imports is used in it or listed in its __all__
    (the package __init__, which only re-exports, is skipped)."""
    src = pathlib.Path(importlib.import_module("sigma2").__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused


def _identifiers(path):
    """Every name, attribute and imported name a module's source mentions."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_lattice_distance_rule_lives_in_elliptic():
    """POLE_TOL is read only where it is defined and in elliptic, whose
    on_lattice is the one divisor test; the modules built on sigma leave
    lattice reduction to elliptic as well."""
    src = pathlib.Path(importlib.import_module("sigma2").__file__).parent
    uses = {path.name: _identifiers(path) for path in sorted(src.glob("*.py"))}
    assert [name for name, ids in uses.items() if "POLE_TOL" in ids] == [
        "elliptic.py", "numerics.py"]
    assert not [name for name in ("sigma.py", "spectral.py", "inversion.py")
                if "_reduce" in uses[name]]


def test_scipy_not_imported():
    """numpy is the only runtime dependency: importing the package and every
    submodule in a fresh interpreter loads no scipy."""
    import os
    import subprocess
    import sys
    pkg = pathlib.Path(importlib.import_module("sigma2").__file__).parent
    names = ["sigma2"] + [f"sigma2.{p.stem}" for p in sorted(pkg.glob("*.py"))
                          if p.name != "__init__.py"]
    code = (f"import importlib, sys; [importlib.import_module(n) for n in {names!r}]; "
            "assert 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(pkg.parent)})


def test_every_export_is_referenced():
    """Every name in a listed module's __all__ is used somewhere besides its
    own definition: in the package (the re-exporting __init__ aside), the
    tests, the benchmark or the README."""
    import re
    root = pathlib.Path(__file__).resolve().parent.parent
    pkg = pathlib.Path(importlib.import_module("sigma2").__file__).parent
    files = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    files += [p for d in ("tests", "bench") for p in sorted((root / d).glob("*.py"))]
    used = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(name).__all__ if attr not in used]
    assert not unused


def test_every_definition_has_a_program_caller():
    """Every top-level def and class of the package is named by a program:
    by another place in the package (a re-export in __init__ does not
    count), by the benchmark, or as a word of the README or pyproject.toml
    (the console script).  Tests do not count, so code that only tests call
    lives in the tests."""
    import re
    root = pathlib.Path(__file__).resolve().parent.parent
    pkg = pathlib.Path(importlib.import_module("sigma2").__file__).parent
    modules = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in modules + sorted((root / "bench").glob("*.py")):
        used |= _identifiers(path)
    for doc in ("README.md", "pyproject.toml"):
        used |= set(re.findall(r"\w+", (root / doc).read_text()))
    orphans = [f"{path.stem}.{node.name}" for path in modules
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name not in used]
    assert not orphans, orphans
