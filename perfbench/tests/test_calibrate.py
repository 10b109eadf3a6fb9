"""The calibration process answers each request line with one wall time
and ends at end of input.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CALIBRATE = Path(__file__).resolve().parent.parent / "calibrate.py"


def test_one_time_per_request_then_exit_at_end_of_input():
    done = subprocess.run([sys.executable, str(CALIBRATE)], input="\n\n", capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    times = [float(line) for line in done.stdout.splitlines()]
    assert len(times) == 2 and all(t > 0 for t in times)
