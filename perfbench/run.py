"""avfield benchmark: one workload, one closed-loop client, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-n512 --seed 1 --seconds 10 --trace 0

The harness sends one operation at a time and the next only after the
previous one has finished and been checked, for ``--seconds`` seconds.  It
prints detail lines starting with ``#`` (environment, per-operation
latencies, work done, failures) and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no wrappers installed.  With ``--trace 1`` they are its
per-layer metrics: one untraced operation runs first as the baseline for
the tracing overhead, then the layer functions are wrapped (see
tracing.py) for the rest of the run and the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.

``--toy`` shrinks every workload to seconds for the harness self-test, and
``--reference`` replaces the recorded reference values.  The program is
imported from ``src`` of the current directory; without it the harness
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference values to check against (default perfbench/reference.json)")
    return p.parse_args(argv)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    threads["scipy.fft.workers"] = scipy.fft.get_workers()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": {"numpy.fft": "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "?",
                        "scipy.fft": "pocketfft" if hasattr(scipy.fft, "_pocketfft") else "?"},
        "threads": threads,
    }


def measure_setup(args, src: Path, tmp: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, run one at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for k in range(SETUP_REPEATS):
        child_tmp = tmp / f"setup-{k}"
        child_tmp.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), str(child_tmp), "1" if args.toy else "0"],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        shutil.rmtree(child_tmp)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Loop:
    """Closed loop of checked operations; records latency, work and failures."""

    def __init__(self, workload):
        self.w = workload
        self.tracer = None  # set for the traced part of a traced run
        self.times: list[float] = []
        self.work: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, i: int, timed: bool = True) -> float:
        w = self.w
        prepared = w.prepare(i)
        t0 = time.perf_counter()
        try:
            with self.tracer.span(i) if self.tracer else nullcontext():
                out = w.op(i, prepared)
        except Exception:
            out, reason = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if out is not None:
            try:
                reason = w.check(out)
            except Exception:
                reason = "check raised: " + traceback.format_exc(limit=3)
        self.attempted += 1
        if reason:
            self.failures.append(f"op {i}: {reason}")
        if timed:
            self.times.append(dt)
            self.work.append(out.work if out is not None else {})
        return dt

    def run(self, seconds: float) -> None:
        t_end = time.perf_counter() + seconds
        i = 0
        while True:
            self.one(i)
            i += 1
            if time.perf_counter() >= t_end:
                break


def tail(times: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(times)
    text = f"median {statistics.median(xs):.6g} s over {len(xs)} ops"
    if len(xs) > 10:
        k = len(xs) - 10
        text += f"; p{100 * k / len(xs):.0f} {xs[k - 1]:.6g} s (10 samples above)"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "avfield" / "__init__.py").is_file():
        fail(f"no avfield sources under {src}; run from the root of a checkout")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found in the current directory")
    bench = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    import avfield

    if Path(avfield.__file__).resolve().parent != (src / "avfield").resolve():
        fail(f"imported avfield from {avfield.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads(args.reference.read_text()) if args.reference else None

    out_dir = root / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setup_times = measure_setup(args, src, tmp)
        w = workloads.make(args.workload, args.toy, args.seed, tmp, reference)
        w.setup()
        loop = Loop(w)
        if args.trace:
            metrics, notes = traced(args, w, loop, out_dir)
        else:
            if w.warmup:
                loop.one(-1, timed=False)
            loop.run(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_s": statistics.median(loop.times),
                "peak_rss_mb": rss_mb,
            }
            notes = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not computed: {missing}")
    failed = len(loop.failures)

    print(f"# env {json.dumps(environment())}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' toy' if args.toy else ''}")
    print(f"# setup_s samples {[round(t, 6) for t in setup_times]}")
    print(f"# op latency: {tail(loop.times)}")
    print(f"# attempted {loop.attempted} failed {failed} "
          f"failed_frac {failed / loop.attempted:.6g}")
    for reason in loop.failures:
        print("# FAILED " + reason.replace("\n", "\n#   "))
    keys = sorted({k for work in loop.work for k in work})
    for k in keys:
        print(f"# work {k}: {[work.get(k) for work in loop.work]}")
    print(f"# ops_per_s {len(loop.times) / sum(loop.times):.6g}")
    if "triangles" in keys:
        print(f"# triangles_per_s {sum(x['triangles'] for x in loop.work) / sum(loop.times):.6g}")
    for note in notes:
        print("# " + note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def traced(args, w, loop: Loop, out_dir: Path):
    """Baseline operation untraced, then the traced loop; per-layer metrics."""
    import tracing

    base_s = loop.one(-1, timed=False)
    tracer = tracing.Tracer(w.grid_n)
    tracer.install()
    loop.tracer = tracer
    try:
        loop.run(args.seconds)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, len(loop.times))
    metrics.update({"kernels.sample_s": 0.0, "kernels.retained_mb": 0.0, **w.layer})
    metrics["trace.overhead_s"] = statistics.median(loop.times) - base_s
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "env": environment(), "untraced_op_s": base_s})
    notes = [f"spans {len(tracer.spans)} written to {path.relative_to(Path.cwd())}",
             f"untraced baseline op {base_s:.6g} s"]
    if tracer.absent:
        notes.append(f"absent layer functions (their metrics read 0): {tracer.absent}")
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
