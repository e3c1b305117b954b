"""What importing the system pulls in.

``networkx`` is a test-only dependency: the CLI, the HTTP server and
the Table 5 baselines run on the standard library.  A fresh interpreter
is used so that modules this test session already imported do not
count.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_system_does_not_import_networkx():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import repro.cli, repro.server, repro.baselines.capabilities; "
        "print('networkx' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert completed.stdout.strip() == "False"
