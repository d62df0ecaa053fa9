"""The benchmark's workloads: census rows and single-model analyses.

Each workload has a ``prepare(seed)`` that builds its inputs and a
``run_pass(inputs, seed, check, repeat)`` that does one full pass of work,
reports each checked operation to ``check(ok, label)`` and returns a
``Pass``.  With ``repeat``, short models are analysed three times in a
pass, for a steadier time; the traced pass does not repeat, so that it
compares with the untraced one.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from dataclasses import dataclass, field

from identkit import census, cyclespace, identcore, transforms
from identkit.model import make_model

# Census counts per row, as computed by the seed commit; seed-independent.
# Order: total, then CELL_NAMES (the census columns, kept here so the
# expectation does not follow a change to the program's own list).
EXPECTED_ROWS = {
    (4, 3): (220, None, None, None, 2, 2, 7, 7),
    (4, 4): (495, 6, 6, 6, 37, 25, 72, 59),
    (4, 5): (792, 84, 66, 62, 193, 70, 267, 167),
    (4, 6): (924, 316, 166, 118, 445, None, 518, 184),
    (4, 7): (792, 492, None, 86, 565, None, 603, 96),
    (5, 5): (15504, 24, 24, 24, 222, 162, 518, 432),
    (5, 6): (38760, 720, 576, 600, 2470, 1288, 4130, 2888),
}
CELL_NAMES = (
    "strongly_connected",
    "expdim_in1_out1",
    "expdim_in1_out23",
    "sioc_in1_out2",
    "expdim_in1_out2",
    "sioc_in13_out2",
    "expdim_in13_out2",
)
# Cells where the computed count disagrees with the published table; pinned
# at the computed value above and printed next to the reference.
DISPUTED = {(4, 5, "expdim_in1_out1"): 54, (5, 6, "expdim_in13_out2"): 1110}


def cpu_split() -> tuple[float, float]:
    """(user, system) CPU seconds of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + children.ru_utime, own.ru_stime + children.ru_stime


def cpu_now() -> float:
    return sum(cpu_split())


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0  # this process and its children
    units: int = 0  # graphs classified or models analysed
    # per row or model run: (row or model index, wall start, wall end,
    # user CPU seconds, system CPU seconds, graphs)
    items: list[tuple[int, float, float, float, float, int]] = field(default_factory=list)
    signature: list = field(default_factory=list)  # counts and verdicts


# -- census ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusWorkload:
    n: int
    ms: tuple[int, ...]
    jobs: int

    def prepare(self, seed: int):
        census.census_row(4, 3, seed=seed, jobs=self.jobs)  # warm-up, Pool included
        return [(self.n, m) for m in self.ms]

    def disputed_lines(self) -> list[str]:
        return [
            f"disputed cell ({n},{m}) {cell}: pinned at computed "
            f"{EXPECTED_ROWS[(n, m)][1 + CELL_NAMES.index(cell)]}, reference {ref}"
            for (n, m, cell), ref in DISPUTED.items()
            if n == self.n and m in self.ms
        ]

    def run_pass(self, rows, seed: int, check, repeat: bool = False) -> Pass:
        out = Pass()
        start, cpu_start = time.perf_counter(), cpu_now()
        for index, (n, m) in enumerate(rows):
            wall0, (user0, sys0) = time.perf_counter(), cpu_split()
            try:
                row = census.census_row(n, m, seed=seed, jobs=self.jobs)
            except Exception as exc:  # one failed row must not end the run
                check(False, f"census ({n},{m}) raised {exc!r}")
                continue
            wall1, (user1, sys1) = time.perf_counter(), cpu_split()
            got = (row.total,) + tuple(row.cells()[c] for c in CELL_NAMES)
            want = EXPECTED_ROWS[(n, m)]
            diff = [
                f"{name}={g} (expected {w})"
                for name, g, w in zip(("total",) + CELL_NAMES, got, want)
                if g != w
            ]
            check(not diff, f"census ({n},{m}): " + ", ".join(diff))
            out.units += row.total
            out.items.append((index, wall0, wall1, user1 - user0, sys1 - sys0, row.total))
            out.signature.append(((n, m), got))
        out.wall_s, out.cpu_s = time.perf_counter() - start, cpu_now() - cpu_start
        return out


# -- single-model analysis ------------------------------------------------

CONFIGS = ("full_leaks", "io_leaks", "two_inputs")
SIZES = (6, 7, 8)
EXTRA_EDGES = (1, 2, 3)  # edges beyond the n-1 an SIOC model needs at least
PER_CELL = 4  # models per (config, n, extra): 3 * 3 * 3 * 4 = 108
REPEATS = 3  # with ``repeat``, a model runs this many times in a pass ...
ONCE_LEAKS = 7  # ... unless it has this many leaks (full-leak n = 7, 8: 0.06-1 s each)
# Those run once each, on a collected heap.


def strongly_connected(n: int, edges) -> bool:
    """Every vertex reaches vertex 1 and is reached from it (bitmask search)."""
    out, into = [0] * (n + 1), [0] * (n + 1)
    for i, j in edges:
        out[i] |= 1 << j
        into[j] |= 1 << i
    everyone = (1 << (n + 1)) - 2
    for arcs in (out, into):
        seen = frontier = 2
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= arcs[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~seen
            seen |= step
        if seen != everyone:
            return False
    return True


def random_sioc_model(rng: random.Random, n: int, m: int, config: str):
    """(edges, inputs, output, leaks) of a strongly input-output connected model."""
    slots = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    while True:
        out = rng.randint(1, n)
        if config == "two_inputs":
            inputs = set(rng.sample(range(1, n + 1), 2))
        else:
            inputs = {rng.randint(1, n)}
        edges = rng.sample(slots, m)
        if strongly_connected(n, edges + [(out, i) for i in inputs]):
            leaks = set(range(1, n + 1)) if config == "full_leaks" else inputs | {out}
            return edges, inputs, out, leaks


class AnalyzeWorkload:
    """A fixed set of model structures; the workload seed seeds the rank trials.

    Analysis cost differs several-fold between random graphs of equal size,
    and even between vertex labelings of one graph, so new structures per
    seed would make the latency percentiles follow the draw, not the code.
    """

    jobs = 1

    def prepare(self, seed: int):
        models = []
        for config in CONFIGS:
            for n in SIZES:
                for extra in EXTRA_EDGES:
                    for k in range(PER_CELL):
                        rng = random.Random(f"analyze:{config}:{n}:{extra}:{k}")
                        edges, inputs, out, leaks = random_sioc_model(rng, n, n - 1 + extra, config)
                        models.append((config, make_model(n, edges, inputs, {out}, leaks)))
        analyze_model(models[0][1], seed)  # warm-up
        return models

    def disputed_lines(self) -> list[str]:
        return []

    def run_pass(self, models, seed: int, check, repeat: bool = False) -> Pass:
        out = Pass()
        start, cpu_start = time.perf_counter(), cpu_now()
        for index, (config, model) in enumerate(models):
            # A fixed number of runs, not one that follows the time taken, so that
            # the allocations, and so the collector's work and peak memory, do not
            # depend on the host's speed.
            large = len(model.leaks) >= ONCE_LEAKS
            runs = REPEATS if repeat and not large else 1
            signatures = []
            while len(signatures) < runs:
                if large:
                    # A large model starts on a collected heap, so that the peak
                    # memory and the collections inside it do not depend on
                    # what earlier models left behind.
                    gc.collect()
                wall0, (user0, sys0) = time.perf_counter(), cpu_split()
                try:
                    ok, label, signature = analyze_model(model, seed)
                except Exception as exc:  # one failed model must not end the run
                    ok, label, signature = False, f"raised {exc!r}", None
                wall1, (user1, sys1) = time.perf_counter(), cpu_split()
                out.items.append((index, wall0, wall1, user1 - user0, sys1 - sys0, 1))
                if signatures and signature != signatures[0]:
                    ok, label = False, f"repeat gave {signature}, first run {signatures[0]}"
                check(ok, f"model {index} ({config}, n={model.n}): {label}")
                signatures.append(signature)
            out.units += 1
            out.signature.append(signatures[0])
        out.wall_s, out.cpu_s = time.perf_counter() - start, cpu_now() - cpu_start
        return out


def analyze_model(model, seed: int):
    """Analyse one model; returns (ok, failure detail, verdict signature)."""
    full = model.leaks == frozenset(model.vertices)
    report = identcore.classify_identifiability(model, seed=seed)
    rank = report.jacobian_rank
    limits = [report.param_count, report.coeff_count]
    if report.expected_dimension_bound is not None:
        limits.append(report.expected_dimension_bound)
    problems = []
    if rank > min(limits):
        problems.append(f"rank {rank} exceeds min(params, coefficients, bound) = {min(limits)}")
    explicit_rank = None
    certified = None
    if full:
        explicit_rank = identcore.classify_identifiability(model, seed=seed, mode="explicit").jacobian_rank
        if explicit_rank != rank:
            problems.append(f"diag rank {rank} != explicit rank {explicit_rank}")
    path_cycle_rank, _ = cyclespace.path_cycle_rank(model)
    if full:
        _, certificate = transforms.remove_leaks(model, model.in_union_out, seed=seed)
        certified = certificate is not None
    signature = (report.verdict, rank, explicit_rank, path_cycle_rank, certified)
    return not problems, "; ".join(problems), signature


WORKLOADS = {
    "census_n4": CensusWorkload(n=4, ms=(3, 4, 5, 6, 7), jobs=1),
    "census_n5": CensusWorkload(n=5, ms=(5, 6), jobs=2),
    "analyze": AnalyzeWorkload(),
}
