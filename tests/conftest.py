"""The package imports from src in the tests' own process (pyproject's
pythonpath) and in the ``python -m deltachain`` subprocesses they start."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
