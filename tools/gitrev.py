"""Extract a git revision of this repository into a temporary directory.

Shared by the tools that compare a revision with this checkout:

    with extracted("HEAD~1", "src") as tree:
        ...  # tree / "src" holds HEAD~1's src/
"""

from __future__ import annotations

import contextlib
import io
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


@contextlib.contextmanager
def extracted(rev: str, *paths: str):
    """Yield a temporary directory holding rev's tree, or only its paths
    when given, as git archive writes it; RuntimeError when git archive
    fails.  The directory is removed on exit, also when SIGTERM ends the
    process: while the tree exists, SIGTERM raises SystemExit."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *paths],
                             capture_output=True)
    if archive.returncode:
        raise RuntimeError(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp, filter="data")
            yield Path(tmp)
    finally:
        signal.signal(signal.SIGTERM, previous)
