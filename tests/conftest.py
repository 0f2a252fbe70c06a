"""The tests import the package from this checkout's ``src`` (``pythonpath``
in pyproject.toml); the interpreters they start import it from there too."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
