"""The package declares ``dependencies = []``: importing it loads the standard library only.

A third-party import (scipy once) costs start-up time on every command and
breaks a plain install, so every module of ``bergman`` is imported in a fresh
interpreter and each module it loads is checked against
``sys.stdlib_module_names``.  ``__main__`` is left out: importing it runs the
command line, and it imports ``cli`` and ``sys`` alone.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import bergman
names = sorted(m.name for m in pkgutil.iter_modules(bergman.__path__) if m.name != "__main__")
for name in names:
    __import__("bergman." + name)
loaded = sorted(set(sys.modules) - before)
print(json.dumps({"modules": names, "loaded": loaded}))
"""


def test_importing_every_module_loads_only_the_standard_library():
    out = subprocess.run(
        # -B: -I ignores PYTHONDONTWRITEBYTECODE, and the probe must leave no bytecode in src
        [sys.executable, "-I", "-B", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{PROBE}"],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout)
    assert {"series", "potential", "coefficients", "transport", "cli"} <= set(report["modules"])
    foreign = [m for m in report["loaded"]
               if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "bergman"]
    assert foreign == []
