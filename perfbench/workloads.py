"""Benchmark workloads: seeded coin-toss contexts, rows shuffled by the run seed.

A workload's context is fixed by its coin-toss shape and the context seed
(42 by default; 7 is held out for confirming a claim on data that was not
used while the claim's change was written).  The run seed passed as
``--seed`` shuffles the objects (the rows) of that context before it is
serialised; the attribute columns keep their order.  The shuffle changes
the input bytes and the bit order of every extent, but not the intents or
their lectic order: the concept ids, the closures NextClosure tries, the
cover relation, the generator families and every score are the same for
every run seed.  Runs with different seeds therefore do the same work, and
one reference digest per workload and context seed checks every run.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

DEFAULT_CONTEXT_SEED = 42
HELD_OUT_CONTEXT_SEED = 7
# the timing pass of ``becr bench`` (bench.run_comparison's default)
TIMING_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_objects: int
    n_attributes: int
    density: float
    fmt: str  # "cxt" (Burmeister) or "fimi" (transaction lists)
    timed: bool  # True: one bench.run_comparison call with its timing pass
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice-1000x16", 1000, 16, 0.3, "cxt", False,
            "5,347 concepts and 25,605 cover edges: all-pairs covers and the "
            "bottom concept's 1,425 minimal generators dominate; stability "
            "barely registers.",
        ),
        Workload(
            "wide-14x32", 14, 32, 0.6, "cxt", False,
            "Intents up to 22 attributes plus a 32-attribute bottom concept: "
            "stability DFS and generators dominate, covers are cheap, and the "
            "bottom concept trips the 30-attribute stability guard (1/2106 "
            "scorings fail).  Context seed 7 is about 5x heavier.",
        ),
        Workload(
            "objects-20000x10", 20000, 10, 0.3, "fimi", False,
            "988 concepts on 20,000-bit extents, fed as FIMI text: parsing "
            "and covers over very wide masks, where per-object closure walks "
            "are expensive; scoring is negligible.",
        ),
        Workload(
            "paper-793x10-timed", 793, 10, 0.41, "cxt", True,
            "The paper's random context run through bench.run_comparison with "
            "timing_repeats=5, as `becr bench` does: about half the pipeline "
            "is the per-concept timing pass.",
        ),
    )
}


@dataclass(frozen=True)
class WorkloadInput:
    text: str
    fmt: str
    attributes: list[str]  # the names the parsed context must have, in order
    n_objects: int


def build_input(becr, workload: Workload, context_seed: int, seed: int):
    """(input, seconds spent in synth.coin_toss_context) for one run seed."""
    start = time.perf_counter()
    ctx = becr.coin_toss_context(
        becr.CoinTossSpec(
            workload.n_objects, workload.n_attributes, workload.density,
            context_seed,
        )
    )
    generate_s = time.perf_counter() - start
    objs = list(range(ctx.n_objects))
    random.Random(seed).shuffle(objs)
    rows = [ctx.rows[g] for g in objs]
    if workload.fmt == "cxt":
        shuffled = becr.FormalContext.from_rows(
            [ctx.objects[g] for g in objs], list(ctx.attributes), rows
        )
        text = becr.serialize_cxt(shuffled)
        attributes = list(ctx.attributes)
    else:
        # FIMI names attributes by item id and parse_fimi orders them by
        # id, so column j is written as item j + 1
        m = ctx.n_attributes
        text = "".join(
            " ".join(str(j + 1) for j in range(m) if row >> j & 1) + "\n"
            for row in rows
        )
        attributes = [str(j + 1) for j in range(m)]
    return WorkloadInput(text, workload.fmt, attributes, ctx.n_objects), generate_s
