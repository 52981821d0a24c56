"""Traced live memory of one eval-n512 operation, phase by phase.

Run from anywhere; the checkout is the one this file sits in:

    python3 tools/memory_phases.py --seed 1 [--toy]

It makes the benchmark's eval-n512 workload from ``perfbench/workloads.py``
(read, not changed) in a temporary directory, then runs its set-up, one
operation and that operation's check under ``tracemalloc``.  The phases of
the operation are its own calls (load, energy, gradient, product-state
energy, save), seen through wrappers on the module functions it calls.  For
each phase it prints the traced live MB when the phase ends, the traced
peak MB during it, the MB of arrays that the loaded state's
``StateFields`` keeps (its own arrays, not the state's samples or the
kernels), and the minor page faults the process took during it
(``ru_minflt``: pages the allocator mapped afresh, which the operation's
time pays for).  Under the table it prints the peak resident set size of the
process (``ru_maxrss``, in MB of 10^6 bytes as the benchmark reports it),
which includes tracemalloc's own records.  The exit code is 1 if the check
fails.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, function, phase), in the order the operation calls them
PHASES = [
    ("stateio", "load_state", "load"),
    ("functional", "energy", "energy"),
    ("functional", "energy_and_gradient", "gradient"),
    ("manybody", "product_state_energy", "product"),
    ("stateio", "save_state", "save"),
]


def kept_mb(u) -> float:
    """MB of the arrays held by the StateFields kept on the state u."""
    from avfield.functional import StateFields
    from workloads import kernel_bytes

    fields = [f for f in vars(u).values() if isinstance(f, StateFields)]
    return sum(kernel_bytes(v) for f in fields for k, v in vars(f).items()
               if k not in ("values", "kernels")) / 1e6


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--toy", action="store_true", help="the harness self-test's sizes")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    rows = []
    state = []  # the operation's loaded state, once loaded
    faults = [minor_faults()]  # at the start of the running phase

    def record(phase: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kept = kept_mb(state[0]) if state else 0.0
        faults.append(minor_faults())
        rows.append((phase, current / 1e6, peak / 1e6, kept, faults[-1] - faults[-2]))

    def wrap(fn, phase):
        def wrapper(*a, **kw):
            out = fn(*a, **kw)
            if phase == "load":
                state.append(out[0])
            record(phase)
            return out

        return wrapper

    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            w = workloads.make("eval-n512", args.toy, args.seed, Path(tmp))
            w.setup()
            record("set-up")
            originals = []
            for name, f, phase in PHASES:
                mod = getattr(workloads, name)  # the module the workload calls through
                originals.append((mod, f, getattr(mod, f)))
                setattr(mod, f, wrap(getattr(mod, f), phase))
            try:
                out = w.op(0, w.prepare(0))
            finally:
                for mod, f, fn in originals:
                    setattr(mod, f, fn)
            reason = w.check(out)
            record("check")
        finally:
            tracemalloc.stop()

    print(f"eval-n512{' (toy)' if args.toy else ''} seed {args.seed}, n = {w.n}: "
          "traced MB at the end of each phase and its peak, the state's kept fields "
          "and the phase's minor page faults")
    print(f"{'phase':<10}{'current':>10}{'peak':>10}{'kept':>10}{'minflt':>10}")
    for phase, current, peak, kept, minflt in rows:
        print(f"{phase:<10}{current:>10.2f}{peak:>10.2f}{kept:>10.2f}{minflt:>10}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"peak RSS {rss_mb:.2f} MB")
    if reason:
        print(f"check failed: {reason}")
    return 1 if reason else 0


if __name__ == "__main__":
    sys.exit(main())
