"""Self-test of the benchmark harness at toy sizes (under a minute):

    python3 -m pytest perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "0.5", "--toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    res = result(run("--workload", workload, "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def _shift_harmonic(ref):
    ref["solve-harmonic"]["toy"]["energy"] *= 1.0 + 1e-6


def _shift_eval(ref):
    for state in ref["eval-n512"]["toy"].values():
        state["potential"] *= 1.0 + 1e-8


@pytest.mark.parametrize("workload, corrupt", [
    ("solve-harmonic", _shift_harmonic),
    ("eval-n512", _shift_eval),
])
def test_corrupted_reference_shows_as_failed(tmp_path, workload, corrupt):
    ref = json.loads(json.dumps(REFERENCE))
    corrupt(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    proc = run("--workload", workload, "--reference", str(path))
    res = result(proc)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert "failed_frac 1\n" in proc.stdout


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fft_counter_classifies_by_shape(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import scipy.fft
    import tracing

    original = np.fft.fft2
    tracer = tracing.Tracer(grid_n=16)
    tracer.install()
    try:
        with tracer.span(0) as root:
            np.fft.fft2(np.ones((16, 16)))
            np.fft.irfft2(np.ones((32, 17)), s=(32, 32))
            scipy.fft.rfft(np.ones((16, 32)), axis=1)
            scipy.fft.fft(np.ones((16, 16)), n=32, axis=0)
        np.fft.fft2(np.ones((16, 16)))  # outside an operation: not counted
    finally:
        tracer.uninstall()
    assert root.fft == [1, 1, 2, 0, 256 + 1024 + 512 + 512]
    assert np.fft.fft2 is original


def test_vanished_layer_function_reads_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    monkeypatch.setattr(tracing, "LAYER_FUNCTIONS", tracing.LAYER_FUNCTIONS + [
        ("avfield.no_such_module", "f", "gone.module", None),
        ("avfield.grid", "no_such_function", "gone.function", None),
    ])
    tracer = tracing.Tracer(grid_n=16)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gone.module", "gone.function"]
    assert tracing.layer_metrics([], 1)["solver.iterations"] == 0.0
