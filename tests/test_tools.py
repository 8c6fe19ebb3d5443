import re
import subprocess
import sys
from pathlib import Path

FINGERPRINT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_prints_its_six_sections():
    # the tool reads library fields by name, so a renamed field breaks it
    r = subprocess.run(
        [sys.executable, str(FINGERPRINT)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    sections = [re.match(r"(\w+) +(\d+) ([0-9a-f]{64})\b", line) for line in lines]
    assert all(sections), lines
    counts = {m[1]: int(m[2]) for m in sections}
    assert counts == {
        "partition": 250, "report": 280, "bracket": 10,
        "clique": 6, "lp": 64, "cli": 11,
    }
    assert "t in [lo, hi]: 10/10" in lines[2]
    assert re.match(r"fingerprint: [\d.]+ s$", r.stderr.strip())
