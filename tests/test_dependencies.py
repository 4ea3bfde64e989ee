"""numpy stays the only runtime dependency of the package."""

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
