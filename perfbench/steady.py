"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--first-seed 1] [--trace] [--summary FILE]

Runs the command of BENCHMARK.json ``--runs`` times per workload in each
of two sets, one run at a time, each with its own seed (set k, run i uses
seed first_seed + k * runs + i), and writes every result to
perfbench/out/steady.jsonl.  Then, per workload and end-to-end metric, it
reports each set's median and spread (the distance between the first and
third quartiles as a share of the median) and a verdict on the pair:

- agree: both spreads are within the metric's bound and the two medians
  differ by at most the bound, as a share of the first, in either
  direction;
- unresolved: a spread is wider than the bound, so the sets cannot be
  compared at that bound;
- differ: the spreads are within the bound but the medians are not.

A spread above a third of the bound is flagged as ``noisy``.
``--summary`` writes the medians, quartiles and sample counts as JSON.
With ``--trace`` the runs use ``--trace 1`` and the per-layer metrics are
summarised instead; they have no bound, so no verdict is given.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900  # the first run in a checkout may compile bytecode
SETS = 2
LOG = HERE / "out" / "steady.jsonl"


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace)),
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "exit": done.returncode, "wall_s": wall, "result": result,
            "stderr": done.stderr[-2000:]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(spec, entries, trace, summary_path):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    summary = {}
    verdicts = []
    for workload in dict.fromkeys(e["workload"] for e in entries):
        runs = [e for e in entries
                if e["workload"] == workload and e["trace"] == int(trace)]
        bad = [e for e in runs if e["result"] is None
               or not e["result"]["correct"]]
        good = [e for e in runs if e not in bad]
        walls = [e["wall_s"] for e in runs]
        print(f"\n{workload}: {len(good)} good runs, {len(bad)} failed, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        sets = sorted({e["set"] for e in good})
        summary[workload] = {"pipelines per run": [
            statistics.median(e["result"]["attempted"]
                              for e in good if e["set"] == k)
            for k in sets
        ]}
        for metric in metrics:
            name = metric["name"]
            per_set = [
                [e["result"]["metrics"][name]["value"]
                 for e in good if e["set"] == k]
                for k in sets
            ]
            per_set = [v for v in per_set if len(v) >= 2]
            if not per_set:
                continue
            stats = [spread(v) for v in per_set]
            summary[workload][name] = [
                {"median": m, "q1": q1, "q3": q3, "spread": s, "runs": len(v),
                 "unit": metric["unit"]}
                for (m, q1, q3, s), v in zip(stats, per_set)
            ]
            cells = "  ".join(
                f"{m:.6g} (iqr {s:.3f}{' noisy' if 'bound' in metric and s > metric['bound'] / 3 else ''})"
                for m, _, _, s in stats
            )
            verdict = ""
            if "bound" in metric and len(stats) == SETS:
                bound = metric["bound"]
                first, later = stats[0][0], stats[1][0]
                moved = (later - first) / first
                verdict = ("unresolved" if any(s > bound for *_, s in stats)
                           else "agree" if abs(moved) <= bound else "differ")
                verdict += f" (second median {moved:+.3f}, bound {bound})"
                verdicts.append(verdict.split()[0])
            print(f"  {name:<28} {cells}  {verdict}")
    if summary_path:
        Path(summary_path).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(v == "agree" for v in verdicts) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--summary")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    entries = []
    LOG.parent.mkdir(parents=True, exist_ok=True)
    with LOG.open("w") as out:
        for k in range(SETS):
            for workload in workloads:
                for i in range(args.runs):
                    seed = args.first_seed + k * args.runs + i
                    entry = run_once(spec, workload, seed, args.trace)
                    entry["set"] = k
                    entries.append(entry)
                    out.write(json.dumps(entry) + "\n")
                    out.flush()
                    print(f"set {k} {workload} seed {seed}: exit "
                          f"{entry['exit']}, {entry['wall_s']:.1f} s",
                          flush=True)
    return report(spec, entries, args.trace, args.summary)


if __name__ == "__main__":
    sys.exit(main())
