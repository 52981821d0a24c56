"""The phase-by-phase memory tool, at the benchmark's toy size."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "memory_phases.py"


def test_toy_run_prints_every_phase_and_writes_nothing_here(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--toy", "--seed", "3"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *table, rss = proc.stdout.splitlines()[2:]
    rows = [line.split() for line in table]
    assert [r[0] for r in rows] == ["set-up", "load", "energy", "gradient", "product",
                                    "save", "check"]
    current, peak, kept = ([float(r[i]) for r in rows] for i in (1, 2, 3))
    assert all(0 < c <= p for c, p in zip(current, peak))
    # each phase's minor page faults, a count; the set-up maps the kernels' pages
    faults = [int(r[4]) for r in rows]
    assert faults[0] > 0 and min(faults) >= 0
    # nothing is kept before the energy, and the fields outlive the operation
    assert kept[1] == 0 and kept[2] > 0 and kept[-1] > 0
    # under the table, the process's peak RSS, which holds every traced peak
    label, rss_mb = rss.removesuffix(" MB").rsplit(" ", 1)
    assert label == "peak RSS" and float(rss_mb) > max(peak)
    assert not any(tmp_path.iterdir())
