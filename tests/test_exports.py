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
