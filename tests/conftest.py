"""The package imports from src in the tests' own process (pyproject's
pythonpath) and in the ``python -m deltachain`` subprocesses they start,
and those subprocesses turn every RuntimeWarning into an error, as
pyproject's filterwarnings does in the tests' own process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
# the last filter given takes precedence, so this one wins over the caller's
os.environ["PYTHONWARNINGS"] = ",".join(filter(None, (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning")))
