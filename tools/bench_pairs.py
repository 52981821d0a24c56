"""Alternating parent/change pairs of the benchmark, summarized into one file.

Run from the root of a checkout, with the parent and the change each in its
own directory (made with ``git archive``, say).  Their resolved paths must be
of equal length, or nothing is run and the exit code is 2:

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --workload geometry --seeds 201-212 --seconds 8 --claim geometry:op_s \
        --out BENCH_N.json

For every workload and seed it runs the command of ``BENCHMARK.json`` with
``--workload W --seed S --seconds T --trace 0`` once in each checkout, the
parent first on even pairs and the change first on odd ones, and reads the
JSON of the run's last line.  The file gets every pair's end-to-end metrics,
each side's median and quartiles, the change's wins, the gain rule for each
metric and its bound check.  An existing ``--out`` file keeps the workloads
this run does not measure, and the pairs of a workload measured again at the
same ``--seconds``, so the summary covers every pair run.  The benchmark's
own files are only read.  A ``--claim`` whose workload is not a ``--workload``
of the run, or whose metric is not an end-to-end one, is refused with exit
code 2 before anything runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

CLAIM_RULE = (
    "a gain is claimed only when the change wins at least 9/10 of the pairs "
    "(ties count for neither side) and its median is better than the parent's "
    "by more than the parent's interquartile range"
)
BOUND_RULE = (
    "within_bound: the change's median is no worse than the parent's by more "
    "than the metric's relative bound from BENCHMARK.json; regressed: worse by "
    "more; unresolved: the parent's interquartile range is wider than the "
    "bound and not every change run reads better than every parent run"
)
PEAK_RSS_CAVEAT = (
    "peak_rss_mb moves in steps of about 2 MB (the host's transparent huge "
    "page size) with the directory a checkout sits in and from run to run, "
    "not only with the code; compare checkouts at paths of equal length"
)


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarize_metric(parent, change, better: str, bound: float, claimed: bool) -> dict:
    """The pair statistics of one metric; ``parent[i]`` and ``change[i]`` are pair i."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    ps, cs = quartiles(parent), quartiles(change)
    gain = sign * (ps["median"] - cs["median"])  # > 0: the change is better
    wins = sum(g > 0 for g in gains)
    separated = max(sign * np.asarray(change)) < min(sign * np.asarray(parent))
    if -gain > bound * abs(ps["median"]):
        check = "regressed"
    elif ps["iqr"] > bound * abs(ps["median"]) and not separated:
        check = "unresolved"
    else:
        check = "within_bound"
    return {
        "parent": ps,
        "change": cs,
        "pairs": len(gains),
        "wins": wins,
        "losses": sum(g < 0 for g in gains),
        "median_gain": gain,
        "relative_gain": gain / ps["median"] if ps["median"] else None,
        "gain_rule_met": wins >= 0.9 * len(gains) and gain > ps["iqr"],
        "claimed": claimed,
        "bound": bound,
        "bound_check": check,
    }


def summarize_workload(pairs: list[dict], end_to_end: list[dict], claims: set[str]) -> dict:
    """Per-metric statistics and failure counts of one workload's pairs."""
    metrics = {
        m["name"]: summarize_metric(
            [p["parent"]["metrics"][m["name"]] for p in pairs],
            [p["change"]["metrics"][m["name"]] for p in pairs],
            m["better"],
            m["bound"],
            m["name"] in claims,
        )
        for m in end_to_end
    }
    failed = {
        side: {k: sum(p[side][k] for p in pairs) for k in ("failed", "attempted")}
        for side in ("parent", "change")
    }
    return {"pairs": pairs, "metrics": metrics, "operations": failed}


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the checkout's src
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
    }


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="change checkout")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--seeds", type=seed_range, required=True, help="LO-HI, one pair each")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC, repeatable")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        print(f"error: {parent} and {change} differ in length; {PEAK_RSS_CAVEAT}",
              file=sys.stderr)
        return 2
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"]}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in args.workload or metric not in metrics:
            print(f"error: --claim {claim} names no --workload or no end-to-end metric "
                  f"({', '.join(sorted(metrics))})", file=sys.stderr)
            return 2
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    report.update(
        command=[*bench["command"], "--workload", "W", "--seed", "S",
                 "--seconds", str(args.seconds), "--trace", "0"],
        claim_rule=CLAIM_RULE,
        bound_rule=BOUND_RULE,
        peak_rss_caveat=PEAK_RSS_CAVEAT,
    )
    for workload in args.workload:
        # a rerun at the same run length adds its pairs to the earlier ones
        earlier = report["workloads"].get(workload, {})
        pairs = earlier.get("pairs", []) if earlier.get("seconds") == args.seconds else []
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, bench["command"], workload, seed, args.seconds)
            pairs.append(pair)
            print(workload, seed, {s: pair[s]["metrics"] for s in sides}, file=sys.stderr)
        claims = {c.partition(":")[2] for c in args.claim if c.partition(":")[0] == workload}
        report["workloads"][workload] = {
            "seconds": args.seconds,
            **summarize_workload(pairs, bench["end_to_end"], claims),
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
