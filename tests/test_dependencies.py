"""numpy stays the only runtime dependency of the package, and the library
modules stay below the command line."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the top-level modules that importing grdmf.cli adds; modules loaded before
# it (by `site`, say) are not the package's doing
_NEW_MODULES = """
import sys
before = set(sys.modules)
import grdmf.cli
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_imports_only_the_standard_library_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.split()
    assert "grdmf" in new and "numpy" in new
    allowed = sys.stdlib_module_names | {"numpy", "grdmf"}
    assert [name for name in new if name not in allowed] == []


#: the package modules each module may import. The protocols in evaluation
#: take Laplacians, as fit does, so they stand on solver, not on graphs: the
#: command line alone turns named similarities into Laplacians
ALLOWED_IMPORTS = {
    "__init__": {"data", "evaluation", "graphs", "linalg", "solver"},
    "__main__": {"cli"},
    "cli": {"data", "evaluation", "exceptions", "graphs", "linalg", "solver"},
    "data": {"exceptions", "linalg"},
    "evaluation": {"data", "exceptions", "linalg", "solver"},
    "exceptions": set(),
    "graphs": {"exceptions", "linalg"},
    "linalg": {"exceptions"},
    "solver": {"exceptions", "linalg"},
    "synthetic": {"data", "graphs"},
}


def _package_imports(node: ast.AST) -> set[str]:
    """The grdmf modules one import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = "grdmf" if node.level else ""
        module = ".".join(filter(None, [base, node.module]))
        names = [f"{module}.{alias.name}" for alias in node.names] + [module]
    else:
        return set()
    parts = [name.split(".") for name in names]
    return {p[1] for p in parts if len(p) > 1 and p[0] == "grdmf"} & set(ALLOWED_IMPORTS)


def _module_paths():
    return sorted((ROOT / "src" / "grdmf").glob("*.py"))


def test_each_module_imports_only_the_package_modules_its_row_allows():
    assert {path.stem for path in _module_paths()} == set(ALLOWED_IMPORTS)
    extra = {}
    for path in _module_paths():
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set().union(*map(_package_imports, ast.walk(tree)))
        if imported - ALLOWED_IMPORTS[path.stem]:
            extra[path.stem] = sorted(imported - ALLOWED_IMPORTS[path.stem])
    assert extra == {}


def _names_config_error(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Name) and node.id == "ConfigError"
        or isinstance(node, ast.Attribute) and node.attr == "ConfigError"
        or isinstance(node, ast.alias) and node.name == "ConfigError"
    )


def test_library_modules_know_nothing_of_the_command_line():
    # a configuration error is the CLI's to raise, and only the entry point
    # runs the CLI; the library raises its own errors
    offenders = []
    for path in _module_paths():
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ("cli" in _package_imports(node) and path.name != "__main__.py") or (
                _names_config_error(node) and path.name != "exceptions.py"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_root_re_exports_each_library_modules_all():
    # each module's __all__ is the one list of its public names: the root
    # holds them all, in module order, each one the module's own object
    import grdmf

    names = ["data", "evaluation", "graphs", "linalg", "solver"]
    assert set(names) == ALLOWED_IMPORTS["__init__"]
    modules = [importlib.import_module(f"grdmf.{name}") for name in names]
    expected = [name for module in modules for name in module.__all__]
    assert grdmf.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(grdmf, name) is getattr(module, name), f"{module.__name__}.{name}"
