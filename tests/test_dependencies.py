"""numpy stays the only runtime dependency of the package, and the library
modules stay below the command line."""

import ast
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


def _imports_cli(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "grdmf.cli" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return module in (".cli", "grdmf.cli") or (
            module in (".", "grdmf") and any(alias.name == "cli" for alias in node.names)
        )
    return False


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
    for path in sorted((ROOT / "src" / "grdmf").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (_imports_cli(node) and path.name != "__main__.py") or (
                _names_config_error(node) and path.name != "exceptions.py"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
