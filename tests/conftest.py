"""Python subprocesses started by the tests import the same conekit as the
tests themselves, whether or not the package is installed."""

import os
from pathlib import Path

import conekit

_SRC = str(Path(conekit.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
