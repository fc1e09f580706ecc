"""Run one benchmark workload through the becr scoring pipeline.

    python3 perfbench/run.py --workload lattice-1000x16 --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there, and nothing else is used.  Load is a closed loop from one thread: a
pipeline (parse, enumerate, covers, BECR with minimal generators and
stability for every concept, emit the score table) starts only when the
previous one has finished, until ``--seconds`` of pipeline time have been
measured.  Every pipeline's output is checked outside the timed region
(see check.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced pipelines and prints the
per-layer metrics: self time per module from spans around the calls into
each module (see tracing.py), work counters computed from the outputs, and
``trace.overhead_s``, the tracing cost of one pipeline estimated from its
span and closure counts.  Spans are written to perfbench/out/.  Either way
the pipelines run in this process; ``setup_s`` is the median over this
process and SETUP_SAMPLES - 1 fresh interpreters, because an import can be
timed only once per interpreter.  The fresh interpreters run between
pipelines, spread evenly over the measured time.

``setup_s`` and ``pipeline_s`` are times at reference speed: each set-up
and each untraced pipeline is paired with samples of a fixed reference
loop taken in the same seconds, and its wall time is rescaled by them
(see speed.py), so that the spells in which a shared machine runs slower
do not show as changes of the program.  The wall-time medians are printed
beside them.

Each metric is printed by name with its unit; the last line is one JSON
object with the keys correct, attempted (pipelines run), failed (pipelines
whose output failed a check) and metrics.  A tripped intent guard is a
failed scoring, reported as failed_ratio, not a failed pipeline.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pipeline
import speed
from check import Checker
from tracing import Tracer, self_times, wrapper_costs
from workloads import DEFAULT_CONTEXT_SEED, WORKLOADS, build_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 21
PROBE_TIMEOUT_S = 60


def src_dir() -> Path:
    src = ROOT / "src"
    if not (src / "becr" / "__init__.py").is_file():
        sys.exit(f"run.py: no becr package under {src}")
    return src


def load_becr():
    src = src_dir()
    sys.path.insert(0, str(src))
    import becr

    if Path(becr.__file__).resolve().parent != (src / "becr").resolve():
        sys.exit(f"run.py: imported becr from {becr.__file__}, not {src}")
    return becr


def set_up(args):
    """Import becr and build the input text: what a run pays before scoring.

    Returns becr, the input and the set-up's figures: wall and
    reference-speed seconds, and the seconds spent generating the context.
    """
    def work():
        becr = load_becr()
        return becr, *build_input(
            becr, WORKLOADS[args.workload], args.context_seed, args.seed
        )

    (becr, inp, generate_s), wall, at_ref = speed.time_bracketed(work)
    return becr, inp, {"setup_s": at_ref, "setup_wall_s": wall,
                       "generate_s": generate_s}


def probe_setup(args) -> dict:
    """Time the set-up in a fresh interpreter; return its JSON record."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--context-seed", str(args.context_seed), "--probe-setup",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])


def highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it, if any."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) >= 1000:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


@dataclass
class Measured:
    walls: list[float] = field(default_factory=list)  # untraced pipelines
    at_ref: list[float] = field(default_factory=list)  # the same, rescaled
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)  # per traced pipeline
    taus: list[tuple[float, float]] = field(default_factory=list)  # traced runs
    errors: list[list[str]] = field(default_factory=list)  # per pipeline
    last: pipeline.Outcome | None = None


def measure(becr, inp, workload, seconds, checker, tracer, probe,
            setups) -> Measured:
    """Closed loop of pipelines, alternating with traced ones under tracing.

    Between pipelines, ``probe()`` set-ups are appended to ``setups`` until
    it holds SETUP_SAMPLES, in step with the share of ``seconds`` measured.
    """
    run = pipeline.run_timed if workload.timed else pipeline.run_stages
    m = Measured()
    meter = speed.Meter()
    if tracer is not None:
        span_s, count_s = wrapper_costs()
    while (sum(m.walls) + sum(m.traced_walls) < seconds or not m.walls
           or (tracer is not None and not m.traced_walls)):
        m.last = None
        gc.collect()
        if tracer is not None and len(m.traced_walls) < len(m.walls):
            with tracer.request(becr, len(m.walls) + len(m.traced_walls)):
                start = time.perf_counter()
                m.last = run(becr, inp)
                m.traced_walls.append(time.perf_counter() - start)
            layers = layer_times(tracer, len(m.last.records))
            # the root span is not a wrapped call
            layers["trace.overhead_s"] = ((len(tracer.spans) - 1) * span_s
                                          + tracer.closures * count_s)
            m.layers.append(layers)
        elif tracer is not None:
            # no speed samples: they would land in the program's own
            # timing pass and inflate bench.tau_*
            start = time.perf_counter()
            m.last = run(becr, inp)
            m.walls.append(time.perf_counter() - start)
            if m.last.tau_ns is not None:
                m.taus.append(m.last.tau_ns)
        else:
            m.last, wall, at_ref = meter.time(run, becr, inp)
            m.walls.append(wall)
            m.at_ref.append(at_ref)
        m.errors.append(checker.check(m.last))
        share = min(1.0, (sum(m.walls) + sum(m.traced_walls)) / seconds)
        while len(setups) < 1 + (SETUP_SAMPLES - 1) * share:
            setups.append(probe())
    return m


def layer_times(tracer: Tracer, n: int) -> dict[str, float]:
    """Per-layer figures of one traced pipeline over ``n`` concepts."""
    spans = tracer.spans
    st = self_times(spans)

    def total(*names):
        return sum(sum(st.get(name, ())) for name in names) / 1e9

    becr_spans = [s for s in spans if s[3] == "relevance.becr"]
    stab_spans = [s for s in spans if s[3] == "relevance.stability"]
    # the first n calls of each are the scoring pass; later ones are
    # run_comparison's timing pass
    score_us = [
        (b[5] - b[4] + s[5] - s[4]) / 1e3
        for b, s in zip(becr_spans[:n], stab_spans[:n])
    ]
    out = {
        "context.parse_s": total("context.parse_cxt", "context.parse_fimi"),
        "context.closures": tracer.closures,
        "lattice.enumerate_s": total("lattice.enumerate_concepts"),
        "lattice.covers_s": total("lattice.build_covers"),
        "generators.mingen_s": total("generators.minimal_generators"),
        "generators.mingen_max_s":
            max(st.get("generators.minimal_generators", [0])) / 1e9,
        "relevance.alpha_s": total("relevance.alpha_term"),
        "relevance.becr_self_s": total("relevance.becr"),
        "relevance.stability_s": total("relevance.stability"),
        "relevance.score_p50_us": statistics.median(score_us),
        "relevance.score_p99_us": statistics.quantiles(score_us, n=100)[98],
        "bench.emit_s": total("bench.emit_csv"),
    }
    if len(becr_spans) > n:
        out["bench.timing_pass_s"] = (
            max(s[5] for s in becr_spans + stab_spans) - becr_spans[n][4]
        ) / 1e9
    return out


def per_layer(inp, m: Measured, setups, checker):
    """Medians of the traced figures plus counters computed from outputs."""
    concepts, lattice = checker.lattice(m.last)
    metrics = {
        name: statistics.median(layer[name] for layer in m.layers)
        for name in m.layers[0]
    }
    scored = [r for r in m.last.records if r[4] is not None]
    metrics.update({
        "context.input_bytes": len(inp.text.encode()),
        "lattice.concepts": len(concepts),
        "lattice.cover_edges": sum(len(u) for u in lattice.upper_covers),
        "lattice.max_upper_covers": max(len(u) for u in lattice.upper_covers),
        "lattice.largest_intent": max(c.intent.bit_count() for c in concepts),
        "generators.total": sum(r[4] for r in scored),
        "generators.max_family": max(r[4] for r in scored),
        "relevance.stability_subsets": sum(
            1 << c.intent.bit_count()
            for c, r in zip(concepts, m.last.records) if r[3] is not None
        ),
        "relevance.guard_trips": len(m.last.failures),
        "relevance.scorings": 2 * len(concepts),
        "synth.generate_s": statistics.median(s["generate_s"] for s in setups),
    })
    return metrics


def last_outcome(checker, outcome) -> dict:
    """Concept count and failed scorings (kind, concept id, |B|) to print."""
    concepts, _ = checker.lattice(outcome)
    return {
        "concepts": len(concepts),
        "failures": [[kind, i, concepts[i].intent.bit_count()]
                     for kind, i in outcome.failures],
    }


def reference_for(args) -> dict | None:
    references = json.loads((HERE / "reference.json").read_text())
    return references.get(args.workload, {}).get(str(args.context_seed))


def untraced(becr, inp, workload, seconds, checker, probe, setups):
    """End-to-end metrics of untraced pipelines."""
    m = measure(becr, inp, workload, seconds, checker, None, probe, setups)
    # ru_maxrss is in KiB on Linux; read before the oracles allocate
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    concepts, _ = checker.lattice(m.last)
    pipeline_s = statistics.median(m.at_ref)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pipeline_s": pipeline_s,
        "concepts_per_s": len(concepts) / pipeline_s,
        "peak_rss_mb": rss_mb,
    }
    setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups at reference speed; "
                   f"wall {setup_wall:.6f} s",
        "pipeline_s": f"median of {len(m.walls)} pipelines at reference "
                      f"speed; wall {statistics.median(m.walls):.6f} s",
    }
    tail = highest_percentile(m.at_ref)
    if tail is not None:
        notes["pipeline_s"] += f"; p{tail[0]} {tail[1]:.6f} s"
    return metrics, notes, m, []


def traced(becr, inp, workload, seconds, checker, probe, setups):
    """Per-layer metrics from alternating untraced and traced pipelines."""
    tracer = Tracer()
    m = measure(becr, inp, workload, seconds, checker, tracer, probe, setups)
    metrics = per_layer(inp, m, setups, checker)
    tracer.write(HERE / "out" / f"spans-{workload.name}.jsonl")
    notes = {"trace.overhead_s": f"estimated, median of "
                                 f"{len(m.traced_walls)} traced pipelines"}
    extra = []
    if workload.timed:
        # only this workload has a timing pass, so these stay off per_layer
        extra.append(("bench.timing_pass_s", metrics["bench.timing_pass_s"],
                      "s", "traced"))
        for k, name in enumerate(("bench.tau_becr_ns", "bench.tau_stability_ns")):
            extra.append((name, statistics.median(t[k] for t in m.taus), "ns",
                          f"program's own, median of {len(m.taus)} untraced "
                          f"pipelines"))
    return metrics, notes, m, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed: shuffles the objects")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--context-seed", type=int,
                        default=DEFAULT_CONTEXT_SEED,
                        help="coin-toss seed of the context (7 is held out)")
    # internal: a fresh interpreter that only times the set-up
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    becr, inp, setup = set_up(args)
    if args.probe_setup:
        print(json.dumps(setup))
        return 0
    workload = WORKLOADS[args.workload]
    checker = Checker(becr, inp, reference_for(args))
    measured = traced if args.trace else untraced
    metrics, notes, m, extra = measured(
        becr, inp, workload, args.seconds, checker,
        lambda: probe_setup(args), [setup],
    )
    m.errors[-1] += checker.deep_check(m.last)
    errors = m.errors
    last = last_outcome(checker, m.last)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]

    print(f"workload {args.workload}  seed {args.seed}  context seed "
          f"{args.context_seed}  concepts {last['concepts']}")
    for metric in wanted:
        name = metric["name"]
        print(f"  {name:<28} {metrics[name]:>16.6f} {metric['unit']:<6} "
              f"{notes.get(name, '')}")
    for name, value, unit, note in extra:
        print(f"  {name:<28} {value:>16.6f} {unit:<6} {note}")
    scorings = 2 * last["concepts"]
    trips = len(last["failures"])
    print(f"  {'failed_ratio':<28} {f'{trips}/{scorings}':>16} ratio  "
          f"{trips / scorings:.6f}: scorings that tripped a guard, per pipeline")
    for kind, i, size in last["failures"]:
        print(f"    {kind} of concept {i} (|B| = {size}) tripped its guard")
    if reference_for(args) is None:
        print(f"  no reference for context seed {args.context_seed}; "
              f"digests not compared")
    failed = sorted({e for pipeline_errors in errors for e in pipeline_errors})
    for error in failed:
        print(f"  CHECK FAILED: {error}")
    print(f"  output check {'failed' if failed else 'ok'}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(errors),
        "failed": sum(bool(e) for e in errors),
        "metrics": {} if failed else {
            metric["name"]: {"value": metrics[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
