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

The package ``__init__`` files import nothing themselves: each name loads
its module on first access (``repro._exports``).  So ``import repro`` is
free, the serve client and the load generator stay stdlib-only (a load
generator process never loads numpy), and the wire codec loads neither
the simulation engine nor the client's HTTP stack.
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


# The two probes above import packages, and a package import no longer
# loads the package's modules: these two resolve every export as well.
SCIPY_EXPORTS_PROBE = """
import sys
from repro import *
from repro.exp import *
from repro.serve import *
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

NETWORKX_EXPORTS_PROBE = """
import sys
from repro import *
from repro.flow import *
from repro.graphs import *
from repro.mobility import *
from repro.sweep import *
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""

BARE_PROBE = """
import sys
import repro
print(sorted(m for m in sys.modules if m.startswith("repro.")))
"""

CLIENT_PROBE = """
import sys
import repro.loadgen, repro.serve.client
from repro.loadgen import *
from repro.serve import ServeClient
print("numpy" in sys.modules,
      sorted({m.split(".")[1] for m in sys.modules if m.startswith("repro.")}))
"""

# the codec reads the trace header's name from repro.serve.headers, not
# from the client, which would load the HTTP stack into every worker
CODEC_PROBE = """
import sys
import repro.serve.codec
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "core"]
             or m in ("http.client", "urllib.request", "repro.serve.client")))
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


def test_no_scipy_in_any_export():
    assert _probe(SCIPY_EXPORTS_PROBE) == "[]"


def test_no_networkx_in_library_exports():
    assert _probe(NETWORKX_EXPORTS_PROBE) == "[]"


def test_bare_import_loads_only_the_export_helper():
    assert _probe(BARE_PROBE) == "['repro._exports']"


def test_client_and_load_generator_are_stdlib_only():
    assert _probe(CLIENT_PROBE) == "False ['_exports', 'errors', 'loadgen', 'serve']"


def test_codec_loads_no_simulation_engine():
    assert _probe(CODEC_PROBE) == "[]"
