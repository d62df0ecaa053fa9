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

Counting is deterministic for a fixed seed regardless of worker count: each
graph owns an RNG stream derived from (seed, graph index), and aggregation
is plain addition.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations, islice
from multiprocessing import Pool

from . import graphprops
from .identcore import DEFAULT_TRIALS, derived_rng, jacobian_ranks
from .model import ModelError, compartmental_matrix, make_model
from .sympoly import char_poly_coeffs

CHECKPOINT_EVERY = 10_000

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


def enumerate_graphs(n: int, m: int, start: int = 0, stop: int | None = None):
    """Edge sets of all labeled digraphs (n, m) in lexicographic slot order;
    optionally only ranks [start, stop)."""
    if not 0 <= m <= n * (n - 1):
        raise ValueError(f"m={m} outside 0..{n*(n-1)}")
    gen = combinations(edge_slots(n), m)
    return islice(gen, start, stop)


def row_feasibility(n: int, m: int) -> dict[str, bool]:
    """Which cells are structurally possible at (n, m)."""
    sc_ok = n == 1 or m >= n
    sioc_ok = m >= n - 1
    return {
        "strongly_connected": sc_ok,
        "expdim_in1_out1": sc_ok and m + 1 <= 2 * n - 1,
        "expdim_in1_out23": n >= 3 and sc_ok and m + 3 <= 3 * n - 2,
        "sioc_in1_out2": n >= 2 and sioc_ok,
        "expdim_in1_out2": n >= 2 and sioc_ok and m + 2 <= 2 * n - 1,
        "sioc_in13_out2": n >= 3 and sioc_ok,
        "expdim_in13_out2": n >= 3 and sioc_ok and m + 3 <= 3 * n - 2,
    }


# -- per-graph evaluation -----------------------------------------------


def _evaluate_graph(
    n: int, edges: tuple[tuple[int, int], ...], rng, feas: dict[str, bool], trials: int
) -> dict[str, bool]:
    """Classification bits for one graph; keys follow CELLS."""
    m = len(edges)
    out: dict[str, bool] = {name: False for name in CELLS}

    sc = graphprops.strongly_connected_raw(n, edges)
    out["strongly_connected"] = sc
    sioc12 = sioc132 = False
    if feas["sioc_in1_out2"]:
        sioc12 = graphprops.sioc_via_augmentation(n, edges, (1,), (2,))
        out["sioc_in1_out2"] = sioc12
    if feas["sioc_in13_out2"]:
        sioc132 = graphprops.sioc_via_augmentation(n, edges, (1, 3), (2,))
        out["sioc_in13_out2"] = sioc132

    # (config key, active?, minor positions, rank bound)
    configs = [
        ("expdim_in1_out1", feas["expdim_in1_out1"] and sc, ((1, 1),), m + 1),
        ("expdim_in1_out23", feas["expdim_in1_out23"] and sc, ((1, 2), (1, 3)), m + 3),
        ("expdim_in1_out2", feas["expdim_in1_out2"] and sioc12, ((1, 2),), m + 2),
        ("expdim_in13_out2", feas["expdim_in13_out2"] and sioc132, ((1, 2), (3, 2)), m + 3),
    ]
    active = [cfg for cfg in configs if cfg[1]]
    if not active:
        return out

    model = make_model(n, edges, {1}, {1}, range(1, n + 1))
    matrix = compartmental_matrix(model, "diag")
    entries = matrix.entries
    table = matrix.table

    # jacobian rows by position: the n char-poly coefficients, then n - 1 per cofactor
    positions = list(dict.fromkeys(pos for cfg in active for pos in cfg[2]))
    polys = char_poly_coeffs(entries, table, positions)
    subsets = []
    for _, _, cfg_positions, bound in active:
        rows = list(range(n))
        for pos in cfg_positions:
            start = n + (n - 1) * positions.index(pos)
            rows += range(start, start + n - 1)
        subsets.append((rows, bound))

    ranks = jacobian_ranks(polys, table, rng, trials, subsets)
    for (name, _, _, bound), rank in zip(active, ranks):
        if rank > bound:
            raise AssertionError(f"rank {rank} exceeds bound {bound} for {name} on edges {edges}")
        out[name] = rank == bound
    return out


def _classified(n: int, m: int, seed: int, trials: int, start: int = 0, stop: int | None = None):
    """(graph index, edges, classification bits) for the graphs ranked
    [start, stop); each graph's RNG stream is keyed by (seed, n, m, index)."""
    feas = row_feasibility(n, m)
    for idx, edges in enumerate(enumerate_graphs(n, m, start, stop), start):
        rng = derived_rng(seed, "census", f"{n}:{m}:{idx}")
        yield idx, edges, _evaluate_graph(n, edges, rng, feas, trials)


def _eval_chunk(args) -> list[int]:
    n, m, start, stop, seed, trials = args
    counts = [0] * len(CELLS)
    for _, _, bits in _classified(n, m, seed, trials, start, stop):
        counts = [c + bits[name] for c, name in zip(counts, CELLS)]
    return counts


# -- row and table drivers ------------------------------------------------


def _check_row(n: int, m: int) -> None:
    if n < 1:
        raise ModelError(f"n={n} must be at least 1")
    if not 0 <= m <= n * (n - 1):
        raise ModelError(f"m={m} outside 0..{n * (n - 1)} for n={n}")


def census_row(
    n: int,
    m: int,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    progress=None,
) -> CensusRow:
    """Count all graphs at (n, m); ModelError when n < 1 or m is outside
    0..n(n-1).

    With ``jobs > 1`` one process pool serves the whole row.  With a
    checkpoint path, partial counts are flushed every ``CHECKPOINT_EVERY``
    graphs and an interrupted run resumes from the last flush (the file must
    match n, m, seed and trials).
    """
    _check_row(n, m)
    total = total_graphs(n, m)
    feas = row_feasibility(n, m)
    counts = [0] * len(CELLS)
    next_index = 0

    key = {"n": n, "m": m, "seed": seed, "trials": trials}
    if checkpoint_path and os.path.exists(checkpoint_path):
        with open(checkpoint_path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        if all(state.get(k) == v for k, v in key.items()):
            counts = list(state["counts"])
            next_index = state["next_index"]

    # each checkpoint block is split into one contiguous chunk per worker
    chunks = max(jobs, 1)
    with (Pool(jobs) if jobs > 1 else nullcontext()) as pool:
        mapper = pool.map if pool else map
        while next_index < total:
            stop = min(next_index + CHECKPOINT_EVERY, total)
            step = -(-(stop - next_index) // chunks)
            tasks = [
                (n, m, s, min(s + step, stop), seed, trials)
                for s in range(next_index, stop, step)
            ]
            for part in mapper(_eval_chunk, tasks):
                counts = [a + b for a, b in zip(counts, part)]
            next_index = stop
            if checkpoint_path:
                tmp = checkpoint_path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump({**key, "next_index": next_index, "counts": counts}, fh)
                os.replace(tmp, checkpoint_path)
            if progress:
                progress(n, m, next_index, total)

    cells = {
        name: (counts[pos] if feas[name] else None) for pos, name in enumerate(CELLS)
    }
    return CensusRow(n=n, m=m, total=total, **cells)


def census_table(
    n: int,
    m_values,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    jobs: int = 1,
    checkpoint_dir: str | None = None,
    progress=None,
) -> list[CensusRow]:
    m_values = list(m_values)
    for m in m_values:
        _check_row(n, m)  # before any checkpoint directory is made
    rows = []
    for m in m_values:
        path = None
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = os.path.join(checkpoint_dir, f"census_{n}_{m}_{seed}.json")
        rows.append(
            census_row(n, m, seed=seed, trials=trials, jobs=jobs, checkpoint_path=path, progress=progress)
        )
    return rows


def write_csv(rows: list[CensusRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_record())


def write_sidecar(
    rows: list[CensusRow], path: str, seed: int, trials: int, runtime_seconds: float
) -> None:
    doc = {
        "seed": seed,
        "trials": trials,
        "runtime_seconds": runtime_seconds,
        "rows": [
            {"n": r.n, "m": r.m, "total": r.total, **r.cells()}
            for r in rows
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def cell_members(n: int, m: int, cell: str, seed: int = 0, trials: int = DEFAULT_TRIALS):
    """Graph indices (and edge sets) counted in one cell; debugging aid for
    discrepancy reports."""
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    return [(idx, edges) for idx, edges, bits in _classified(n, m, seed, trials) if bits[cell]]


def discrepancy_report(
    n: int,
    m: int,
    cell: str,
    expected: int,
    seeds=(0, 1, 2),
    trials: int = DEFAULT_TRIALS,
    sample: int = 50,
) -> dict:
    """Evidence bundle for a cell that disagrees with a reference count.

    Re-counts the cell under several independent seeds and lists sample member
    graphs with their per-seed membership, so a stable disagreement can be
    distinguished from a random-evaluation artifact.
    """
    per_seed_members = {}
    for s in seeds:
        per_seed_members[s] = {idx: edges for idx, edges in cell_members(n, m, cell, seed=s, trials=trials)}
    counts = {s: len(v) for s, v in per_seed_members.items()}
    union = sorted(set().union(*per_seed_members.values()))
    unstable = [
        idx for idx in union if not all(idx in per_seed_members[s] for s in seeds)
    ]
    base = per_seed_members[seeds[0]]
    return {
        "n": n,
        "m": m,
        "cell": cell,
        "expected": expected,
        "counts_by_seed": {str(s): counts[s] for s in seeds},
        "stable_across_seeds": not unstable,
        "seed_unstable_graphs": unstable,
        "sample_members": [
            {"index": idx, "edges": [list(e) for e in base[idx]]}
            for idx in sorted(base)[:sample]
        ],
    }
