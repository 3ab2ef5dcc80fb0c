"""Import-path hygiene: loading the program never loads scipy, and
loading the library never loads networkx.

Only the e19 experiment (rank correlation, imported inside its ``run()``)
and the LP oracle of the tests (``tests/flow/lp_oracle.py``) use scipy.
Loading ``scipy.optimize`` roughly doubles the start-up time and the
resident memory of every process, so the library, the CLI, the
experiment registry and the serve tier must all import without it.

networkx serves the interop converters (``repro.graphs.convert``, which
import it on first use) and the interference oracle of the experiments.
It adds about 18 MB of resident memory to a process, so the library
packages that the flow, mobility and sweep paths use import without it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro, repro.cli, repro.exp, repro.serve.server
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

LIBRARY_PROBE = """
import sys
import repro, repro.flow, repro.graphs, repro.mobility, repro.sweep
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""


def _probe(code: str) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_no_scipy_on_any_import_path():
    assert _probe(PROBE) == "[]"


def test_no_networkx_on_library_import_path():
    assert _probe(LIBRARY_PROBE) == "[]"
