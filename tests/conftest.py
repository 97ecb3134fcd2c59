"""Run the suite from a source checkout, without an install.

``src`` goes first on ``sys.path`` for the tests themselves, and first on
``PYTHONPATH`` for the ``python -m votedim.cli`` interpreters they start.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
