"""Record the reference values that the eval and harmonic-solve checks use.

Run from the root of a checkout, at the commit whose outputs define
correct, and only there; every later commit is checked against the file
this writes:

    PYTHONPATH=src python3 perfbench/record_reference.py

It evaluates every state of the eval pools and runs the harmonic solves
(about a minute in all) and rewrites perfbench/reference.json.
"""

import json
import subprocess
import tempfile
from pathlib import Path

import numpy as np

import workloads
from avfield import functional, manybody


def pool_values(w: workloads.EvalN512) -> dict:
    out = {}
    for index in range(w.pool):
        u = workloads.pool_state(w.spec, index)
        bd, G = functional.energy_and_gradient(u, w.fp)
        pb = manybody.product_state_energy(u, w.mp)
        out[str(index)] = {
            "kinetic": bd.kinetic, "mixed": bd.mixed, "quartic": bd.quartic,
            "potential": bd.potential, "total": bd.total,
            "grad_norm": float(np.sqrt(np.sum(np.abs(G) ** 2)) * w.spec.h),
            "product_total": pb.per_particle_total,
        }
    return out


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    ref = {
        "provenance": f"recorded by perfbench/record_reference.py at commit {commit}",
        "solve-harmonic": {}, "eval-n512": {},
    }
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for size, toy in (("toy", True), ("full", False)):
            solve = workloads.make("solve-harmonic", toy, 0, Path(tmp), ref)
            rep = solve.op(0, None).value["report"]
            ref["solve-harmonic"][size] = {
                "energy": rep["breakdown"]["total"], "iterations": rep["iterations"],
                "converged": rep["converged"], "argv": solve.argv,
            }
            ref["eval-n512"][size] = pool_values(workloads.make("eval-n512", toy, 0, Path(tmp), ref))
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
