"""The phase-by-phase memory tool, at the benchmark's toy size."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "memory_phases.py"


def test_toy_run_prints_every_phase_and_writes_nothing_here(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--toy", "--seed", "3"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [r[0] for r in rows] == ["set-up", "load", "energy", "gradient", "product",
                                    "save", "check"]
    current, peak, kept = ([float(r[i]) for r in rows] for i in (1, 2, 3))
    assert all(0 < c <= p for c, p in zip(current, peak))
    # nothing is kept before the energy, and the fields outlive the operation
    assert kept[1] == 0 and kept[2] > 0 and kept[-1] > 0
    assert not any(tmp_path.iterdir())
