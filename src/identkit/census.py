"""Exhaustive census of labeled digraphs by identifiability configuration.

For every labeled simple digraph with n vertices and m edges (no self-loops)
the census counts, with leaks in every compartment and generic diagonal
parameters:

* strongly connected graphs;
* graphs reaching expected dimension for input {1} = output {1} (SC);
* ... for input {1}, outputs {2,3} (SC);
* strongly input-output connected graphs for input {1}, output {2},
  and those reaching expected dimension;
* the same for inputs {1,3}, output {2}.

A cell is NA when its configuration is impossible at (n, m): strong
connectivity needs m >= n, strong input-output connectivity needs
m >= n-1, and an expected-dimension cell is NA when |E| + |In u Out|
exceeds the largest possible coefficient count over all admissible
input-output distances.

Every cell is a property of the graph and of which vertices play the roles
1, 2 and 3, so the census classifies one graph per isomorphism class: the
labeled graph whose edge mask (bit k for slot k of ``edge_slots(n)``) is the
least in its S_n orbit.  The row's classes are generated, not filtered out
of the labeled graphs: ``representatives`` builds them edge by edge by
orderly generation, and maps each to its least image.  It relabels a mask by
table lookups: per chunk of four edge slots and per 4-bit pattern, a tuple
of the pattern's images under all n! permutations, built on first use.  For
n=5 that is 5 chunks x 16 patterns x 120 images; for n=7 (``MAX_N``) at most
11 x 16 x 5040, about 887k entries.

For a representative G with automorphism group Aut(G), the
``strongly_connected`` cell adds n!/|Aut(G)| labeled graphs, and a cell with
k roles adds (n-k)!/|Stab(t)| for each Aut-orbit of ordered role tuples t
that is a member: that many labeled graphs are G with t relabeled to 1..k.
One reachability closure of G (``graphprops.closure``) gives its
distances and decides strong connectivity and the strong input-output
connectivity of every role tuple, whose one output b must be in ``common``
and whose inputs' reach masks must cover every vertex.  A tuple whose bound
|E| + |In u Out| exceeds the paper's expected coefficient count
(``ioeq.coefficient_count`` of its input-output distances) ranks below the
bound at every point: it is a proof-grade non-member and is not ranked.
One ``identcore.graph_ranks`` call per class ranks the other tuples, over
their distinct cofactor sets, each exactly as the expanded Jacobian ranks
at the class's point, whatever values the engine draws after it.

Counting is deterministic for a fixed seed regardless of worker count: the
seed picks the prime (``PRIMES[seed % 3]``), each class draws its one point
from an RNG stream derived from (seed, n, m, index of its representative
among the labeled graphs), and aggregation is plain addition.  A
checkpoint block is a run of ``CHECKPOINT_EVERY`` consecutive classes in
index order; worker k of a block takes its classes k, k + jobs, ..., and
``_eval_chunk`` evaluates and weights them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from multiprocessing import Pool
from operator import or_

from . import graphprops
from .identcore import graph_ranks
from .ioeq import coefficient_count
from .model import ModelError, read_json

CHECKPOINT_EVERY = 10_000  # classes per checkpoint block
# counts summed over the first next_class classes, ranked mod PRIMES[seed % 3]
CHECKPOINT_FORMAT = "seed-prime-class-blocks"
MAX_N = 7  # every generated graph is relabeled by all n! permutations

CELLS = (
    "strongly_connected",
    "expdim_in1_out1",
    "expdim_in1_out23",
    "sioc_in1_out2",
    "expdim_in1_out2",
    "sioc_in13_out2",
    "expdim_in13_out2",
)

CSV_HEADER = ("n", "m", "total") + CELLS


@dataclass(frozen=True)
class CensusRow:
    n: int
    m: int
    total: int
    strongly_connected: int | None
    expdim_in1_out1: int | None
    expdim_in1_out23: int | None
    sioc_in1_out2: int | None
    expdim_in1_out2: int | None
    sioc_in13_out2: int | None
    expdim_in13_out2: int | None

    def cells(self) -> dict[str, int | None]:
        return {name: getattr(self, name) for name in CELLS}

    def csv_record(self) -> list[str]:
        vals = [self.n, self.m, self.total] + [self.cells()[name] for name in CELLS]
        return ["NA" if v is None else str(v) for v in vals]


def edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def total_graphs(n: int, m: int) -> int:
    return math.comb(n * (n - 1), m)


def row_feasibility(n: int, m: int) -> dict[str, bool]:
    """Which cells are structurally possible at (n, m); an expdim cell needs
    m + |In u Out| within the coefficient count at distance 1."""
    sc_ok = n == 1 or m >= n
    sioc_ok = m >= n - 1
    return {
        "strongly_connected": sc_ok,
        "expdim_in1_out1": sc_ok and m + 1 <= coefficient_count(n, (), 1),
        "expdim_in1_out23": n >= 3 and sc_ok and m + 3 <= coefficient_count(n, (1, 1)),
        "sioc_in1_out2": n >= 2 and sioc_ok,
        "expdim_in1_out2": n >= 2 and sioc_ok and m + 2 <= coefficient_count(n, (1,)),
        "sioc_in13_out2": n >= 3 and sioc_ok,
        "expdim_in13_out2": n >= 3 and sioc_ok and m + 3 <= coefficient_count(n, (1, 1)),
    }


# -- isomorphism classes ---------------------------------------------------


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """Every permutation p of 1..n as a tuple with p[0] = 0, in lexicographic order."""
    return tuple((0,) + images for images in permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _image_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per chunk c of four edge slots (4c..4c+3) and per 4-bit pattern q, the
    edge masks of the graph ``q << 4c`` under every permutation of
    ``_permutations(n)``, in that order."""
    slots = edge_slots(n)
    slot_of = {e: k for k, e in enumerate(slots)}
    perms = _permutations(n)
    moved = [tuple(1 << slot_of[p[i], p[j]] for p in perms) for i, j in slots]
    tables = []
    for c in range(0, len(slots), 4):
        table = [(0,) * len(perms)]
        for q in range(1, 1 << min(4, len(slots) - c)):
            low = (q & -q).bit_length() - 1
            table.append(tuple(map(or_, table[q & (q - 1)], moved[c + low])))
        tables.append(tuple(table))
    return tuple(tables)


def _images(n: int, mask: int):
    """The edge masks of the graph ``mask`` under every permutation of
    ``_permutations(n)``, in that order, as an iterable."""
    images = None
    for c, table in enumerate(_image_tables(n)):
        pattern = mask >> 4 * c & 15
        if pattern:
            images = table[pattern] if images is None else map(or_, images, table[pattern])
    return (0,) * len(_permutations(n)) if images is None else images


def representatives(n: int, m: int) -> list[tuple[int, tuple, list[tuple[int, ...]]]]:
    """(index, edges, Aut) of one labeled graph per isomorphism class at
    (n, m), in index order: the graph whose edge mask is the least of its
    S_n orbit, its labeled index, and its automorphisms in the order of
    ``_permutations(n)``, the identity first.  The labeled index of a graph
    is the lexicographic rank of its sorted slot positions among all m-sets
    of the n(n-1) slots of ``edge_slots(n)``, as ``_graph_index`` computes it.

    The classes are built by orderly generation (R. C. Read, "Every one a
    winner", 1978).  A graph is canonical when its mask is the largest of
    its orbit.  Removing the lowest set slot of a canonical graph leaves a
    canonical graph, so the canonical graphs with m edges are the graphs
    H + slot k, for a canonical H with m - 1 edges and k below H's lowest
    set slot, that no relabeling makes larger; each arises from one H.
    """
    slots = edge_slots(n)
    level = [0]
    for _ in range(m):
        children = []
        for h in level:
            for k in range((h & -h).bit_length() - 1 if h else len(slots)):
                child = h | 1 << k
                if max(_images(n, child)) == child:
                    children.append(child)
        level = children
    classes = []
    for canonical in level:
        least = min(_images(n, canonical))
        ids = [k for k in range(len(slots)) if least >> k & 1]
        aut = [p for p, image in zip(_permutations(n), _images(n, least)) if image == least]
        classes.append((_graph_index(ids, len(slots)), tuple(slots[k] for k in ids), aut))
    classes.sort()  # by index, which is unique
    return classes


def _tuple_orbits(n: int, k: int, aut) -> dict[tuple[int, ...], int]:
    """Aut-orbits of ordered k-tuples of distinct vertices: least tuple -> orbit size."""
    if len(aut) == 1:  # only the identity: every tuple is an orbit of its own
        return dict.fromkeys(permutations(range(1, n + 1), k), 1)
    seen: set[tuple[int, ...]] = set()
    orbits = {}
    for t in permutations(range(1, n + 1), k):  # lexicographic, so t is the least of its orbit
        if t not in seen:
            orbit = {tuple(p[v] for v in t) for p in aut}
            seen |= orbit
            orbits[t] = len(orbit)
    return orbits


def _coefficient_count(n: int, dist, cofactors) -> int:
    """``coefficient_count`` of a role tuple with the cofactor positions
    (input, output): each (i, i) is a compartment that is both, and each
    other (i, j) adds the distance i -> j."""
    dists = [dist[i - 1][j - 1] for i, j in cofactors if i != j]
    return coefficient_count(n, dists, len(cofactors) - len(dists))


def _evaluate_class(n: int, edges, aut, seed: int, key, feas: dict[str, bool]) -> dict[str, dict]:
    """The member role-tuple orbits of one graph, per cell: {least tuple: orbit size}.

    A cell's roles are its labels 1..k in order (input 1, outputs 2 and 3;
    or input 1, output 2, input 3), so role tuple (a, b, c) puts vertex a in
    the place of label 1, b in that of 2 and c in that of 3.  The
    ``strongly_connected`` cell has the empty tuple.  Cells that ``feas``
    marks False are left empty.  The rank tests draw their one point by
    ``graph_ranks(..., seed, key, ...)``.
    """
    m = len(edges)
    singles, pairs, triples = (_tuple_orbits(n, k, aut) for k in (1, 2, 3))
    held: dict[str, dict] = {name: {} for name in CELLS}
    graph = graphprops.closure(n, edges)
    full, reach = (1 << n) - 1, [0, *graph.reach]  # reach by 1-based vertex
    sc = graph.common == full
    if sc:
        held["strongly_connected"][()] = 1
    if feas["sioc_in1_out2"]:  # graphprops.sioc with one input and one output
        held["sioc_in1_out2"] = {
            (a, b): size for (a, b), size in pairs.items() if reach[a] == full and graph.common >> (b - 1) & 1
        }
    if feas["sioc_in13_out2"]:
        held["sioc_in13_out2"] = {
            (a, b, c): size
            for (a, b, c), size in triples.items()
            if graph.common >> (b - 1) & 1 and reach[a] | reach[c] == full
        }

    # (cell, role tuple, orbit size, cofactor positions, rank bound) per rank test
    tests = []
    if feas["expdim_in1_out1"] and sc:
        tests += [("expdim_in1_out1", (a,), size, ((a, a),), m + 1) for (a,), size in singles.items()]
    if feas["expdim_in1_out23"] and sc:
        tests += [
            ("expdim_in1_out23", (a, b, c), size, ((a, b), (a, c)), m + 3)
            for (a, b, c), size in triples.items()
        ]
    if feas["expdim_in1_out2"]:
        tests += [
            ("expdim_in1_out2", t, size, (t,), m + 2) for t, size in held["sioc_in1_out2"].items()
        ]
    if feas["expdim_in13_out2"]:
        tests += [
            ("expdim_in13_out2", (a, b, c), size, ((a, b), (c, b)), m + 3)
            for (a, b, c), size in held["sioc_in13_out2"].items()
        ]
    # a tuple whose bound exceeds its coefficient count ranks below the bound
    # at every point: a proof-grade non-member (never so for expdim_in1_out1,
    # whose count 2n - 1 row_feasibility checks)
    tests = [test for test in tests if test[4] <= _coefficient_count(n, graph.dist, test[3])]
    if not tests:
        return held

    # one rank per cofactor set: the role tuples (a, b, c) and (a, c, b) of
    # expdim_in1_out23, for one, rank the same rows
    sets = list(dict.fromkeys(frozenset(test[3]) for test in tests))
    rank_of = dict(zip(sets, graph_ranks(n, edges, seed, key, graph.dist, sets)))
    for name, t, size, cofactors, bound in tests:
        rank = rank_of[frozenset(cofactors)]
        if rank > bound:
            raise AssertionError(f"rank {rank} exceeds bound {bound} for {name} at {t} on edges {edges}")
        if rank == bound:
            held[name][t] = size
    return held


def _eval_chunk(args) -> list[int]:
    """Cell counts of the labeled graphs isomorphic to the ``classes`` of
    ``args``, given as ``representatives`` gives them.  Each class's random
    point is keyed by (seed, n, m, index of its representative).  A class
    adds, per member orbit of role k-tuples with stabiliser size s,
    (n - k)!/s labeled graphs, where s = |Aut| / orbit size."""
    n, m, classes, seed = args
    feas = row_feasibility(n, m)
    counts = [0] * len(CELLS)
    for idx, edges, aut in classes:
        held = _evaluate_class(n, edges, aut, seed, ("census", f"{n}:{m}:{idx}"), feas)
        for pos, name in enumerate(CELLS):
            for t, size in held[name].items():
                counts[pos] += math.factorial(n - len(t)) * size // len(aut)
    return counts


# -- row and table drivers ------------------------------------------------


def check_row(n: int, m: int, jobs: int = 1) -> None:
    """ModelError unless n is in 1..MAX_N, m in 0..n(n-1), and jobs is at
    least 1."""
    if not 1 <= n <= MAX_N:
        raise ModelError(f"n={n} outside 1..{MAX_N}")
    if not 0 <= m <= n * (n - 1):
        raise ModelError(f"m={m} outside 0..{n * (n - 1)} for n={n}")
    if jobs < 1:
        raise ModelError(f"jobs must be at least 1, got {jobs}")


def _read_checkpoint(path: str, key: dict, classes: int) -> tuple[list[int], int] | None:
    """(counts, next class) saved at ``path`` for the run ``key`` of a row
    with ``classes`` classes; None when the file belongs to another run.
    ModelError when it cannot be read."""
    state = read_json(path, "checkpoint", ModelError)
    if not isinstance(state, dict):
        raise ModelError(f"checkpoint {path} is not a JSON object")
    if any(state.get(k) != v for k, v in key.items()):
        return None
    counts, next_class = state.get("counts"), state.get("next_class")
    if not (
        isinstance(counts, list)
        and len(counts) == len(CELLS)
        and all(type(c) is int and c >= 0 for c in counts)
        and type(next_class) is int
        and 0 <= next_class <= classes
    ):
        raise ModelError(f"checkpoint {path} has no valid counts and next_class")
    return counts, next_class


def census_row(
    n: int,
    m: int,
    seed: int = 0,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    progress=None,
) -> CensusRow:
    """Count all graphs at (n, m); ModelError when n is outside 1..MAX_N, m
    outside 0..n(n-1), jobs below 1, or the checkpoint is unreadable.

    With ``jobs > 1`` one process pool, of at most one worker per class,
    serves the whole row.  With a checkpoint path, partial counts are
    flushed every ``CHECKPOINT_EVERY`` classes and an interrupted run
    resumes from the last flush.  The file must match the run's key:
    ``CHECKPOINT_FORMAT``, n, m and seed.  Any other file, one of an older
    format too, is ignored and overwritten, so a resumed row counts exactly
    as an uninterrupted one.  ``progress`` is called after each block with
    (n, m, classes done, classes in the row).
    """
    check_row(n, m, jobs)
    feas = row_feasibility(n, m)
    classes = representatives(n, m)
    counts = [0] * len(CELLS)
    done = 0

    key = {"format": CHECKPOINT_FORMAT, "n": n, "m": m, "seed": seed}
    if checkpoint_path and os.path.exists(checkpoint_path):
        counts, done = _read_checkpoint(checkpoint_path, key, len(classes)) or (counts, done)

    # worker k of a block takes its classes k, k + jobs, ...: as many classes
    # as any other worker, drawn from every part of the block; a row of fewer
    # classes than jobs starts one worker per class
    workers = min(jobs, len(classes))
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        mapper = pool.map if pool else map
        while done < len(classes):
            block = classes[done : done + CHECKPOINT_EVERY]
            tasks = [(n, m, block[k::jobs], seed) for k in range(min(jobs, len(block)))]
            for part in mapper(_eval_chunk, tasks):
                counts = [a + b for a, b in zip(counts, part)]
            done += len(block)
            if checkpoint_path:
                tmp = checkpoint_path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump({**key, "next_class": done, "counts": counts}, fh)
                os.replace(tmp, checkpoint_path)
            if progress:
                progress(n, m, done, len(classes))

    cells = {
        name: (counts[pos] if feas[name] else None) for pos, name in enumerate(CELLS)
    }
    return CensusRow(n=n, m=m, total=total_graphs(n, m), **cells)


def census_table(
    n: int,
    m_values,
    seed: int = 0,
    jobs: int = 1,
    checkpoint_dir: str | None = None,
    progress=None,
) -> list[CensusRow]:
    m_values = list(m_values)
    if not m_values:
        raise ModelError(f"no edge counts to census for n={n}")
    for m in m_values:
        check_row(n, m, jobs)  # before any checkpoint directory is made
    rows = []
    for m in m_values:
        path = None
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = os.path.join(checkpoint_dir, f"census_{n}_{m}_{seed}.json")
        rows.append(
            census_row(n, m, seed=seed, jobs=jobs, checkpoint_path=path, progress=progress)
        )
    return rows


def write_csv(rows: list[CensusRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_record())


def write_sidecar(rows: list[CensusRow], path: str, seed: int, runtime_seconds: float) -> None:
    doc = {
        "seed": seed,
        "runtime_seconds": runtime_seconds,
        "rows": [
            {"n": r.n, "m": r.m, "total": r.total, **r.cells()}
            for r in rows
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def _graph_index(slot_ids, slot_count: int) -> int:
    """Rank of the increasing tuple ``slot_ids`` among
    ``combinations(range(slot_count), len(slot_ids))``."""
    m = len(slot_ids)
    rank, low = 0, 0
    for pos, k in enumerate(slot_ids):
        rank += sum(math.comb(slot_count - 1 - v, m - 1 - pos) for v in range(low, k))
        low = k + 1
    return rank

