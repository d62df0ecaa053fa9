"""Census stream, row counting, determinism, and NA-rule tests.

The small rows asserted here were computed by this package and cross-checked
cell by cell with exact symbolic ranks over the rational function field; the
full published-table comparison lives in the acceptance suite.
"""

from __future__ import annotations

import json
import math
import multiprocessing.pool
import os
import random
import shutil
from itertools import permutations

import pytest

import identkit.census as census_mod
from identkit.census import (
    CELLS,
    census_row,
    representatives,
    row_feasibility,
    total_graphs,
    write_csv,
    write_sidecar,
)
from identkit.graphprops import closure, sioc
from identkit.identcore import PRIMES, entry_slots, output_rows, random_point
from identkit.ioeq import coefficient_count, coefficient_map
from identkit.model import compartmental_matrix, make_model
from identkit.sympoly import char_poly_coeffs

from oracles import (
    cell_members,
    discrepancy_report,
    enumerate_graphs,
    expanded_rank,
    floyd_warshall,
    labeled_census,
    labeled_representatives,
    sioc_via_augmentation,
    strongly_connected_raw,
)

SLOW_ENABLED = os.environ.get("IDENTKIT_RUN_SLOW_CENSUS") == "1"


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(3, 2, 15), (4, 6, 924), (5, 10, 184756), (3, 0, 1), (2, 2, 1)],
    )
    def test_totals(self, n, m, expected):
        assert total_graphs(n, m) == expected

    def test_stream_length_matches_binomial(self):
        for n, m in [(3, 2), (3, 3), (4, 2)]:
            graphs = list(enumerate_graphs(n, m))
            assert len(graphs) == total_graphs(n, m)
            assert len(set(graphs)) == len(graphs)

    def test_each_graph_is_a_sorted_edge_tuple(self):
        for edges in enumerate_graphs(3, 2):
            assert edges == tuple(sorted(edges))
            assert all(s != d for s, d in edges)

    def test_slicing(self):
        full = list(enumerate_graphs(4, 3))
        assert list(enumerate_graphs(4, 3, start=10, stop=20)) == full[10:20]


SMALL_ROWS = [(n, m) for n in range(1, 5) for m in range(n * (n - 1) + 1)]


def _auts(n, m):
    """Automorphism groups of the class representatives of the row (n, m)."""
    return [aut for _, _, aut in representatives(n, m)]


class TestIsomorphismClasses:
    @pytest.mark.parametrize("n,m", SMALL_ROWS + [(5, 5), (5, 6)])
    def test_orbit_weights_cover_every_labeled_graph(self, n, m):
        auts = _auts(n, m)
        assert all(aut[0] == tuple(range(n + 1)) for aut in auts)  # the identity
        assert sum(math.factorial(n) // len(aut) for aut in auts) == total_graphs(n, m)

    def test_class_counts(self):
        """Unlabeled digraphs: 1, 3, 16, 218 on 1..4 vertices (OEIS A000273),
        and 154 and 379 on 5 vertices with 5 and 6 edges."""
        for n, classes in [(1, 1), (2, 3), (3, 16), (4, 218)]:
            assert sum(len(_auts(n, m)) for m in range(n * (n - 1) + 1)) == classes
        assert len(_auts(5, 5)) == 154
        assert len(_auts(5, 6)) == 379

    @pytest.mark.parametrize("n,m", SMALL_ROWS + [(5, 5), (5, 6), (5, 7), (6, 2), (6, 3)])
    def test_generated_classes_match_labeled_walk(self, n, m):
        """Orderly generation yields the graphs that the orbit-minimum test
        keeps among all labeled graphs: same indices, edges and Aut."""
        assert representatives(n, m) == labeled_representatives(n, m)

    @pytest.mark.parametrize("n,m", SMALL_ROWS + [(5, 5), (5, 6)])
    def test_tuple_orbits_of_every_class(self, n, m):
        """Both paths of ``_tuple_orbits`` (Aut = {id} and larger groups)
        give the Aut-orbits of ordered role tuples found by brute force."""
        for _, _, aut in representatives(n, m):
            for k in range(1, min(n, 3) + 1):
                orbits = {}
                for t in permutations(range(1, n + 1), k):
                    orbit = frozenset(tuple(p[v] for v in t) for p in aut)
                    orbits[min(orbit)] = len(orbit)
                assert census_mod._tuple_orbits(n, k, aut) == orbits

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (3, 4), (4, 4), (4, 5)])
    def test_cell_members_match_labeled_oracle(self, n, m):
        exact = labeled_census(n, m, seed=42)
        graphs = list(enumerate_graphs(n, m))
        for cell in CELLS:
            hits = cell_members(n, m, cell, seed=42)
            assert tuple(idx for idx, _ in hits) == (exact[cell] or ()), cell
            assert all(edges == graphs[idx] for idx, edges in hits)


def _expdim_tuples(n, edges):
    """Cofactor positions of each role tuple whose expected dimension the
    census decides on the graph, in every cell, feasible or not."""
    graph = closure(n, edges)
    vs = range(1, n + 1)
    if graph.common == (1 << n) - 1:
        yield from (((a, a),) for a in vs)
        yield from (((a, b), (a, c)) for a, b, c in permutations(vs, 3))
    yield from (((a, b),) for a, b in permutations(vs, 2) if sioc(graph, (a,), (b,)))
    for a, b, c in permutations(vs, 3):
        if sioc(graph, (a, c), (b,)):
            yield ((a, b), (c, b))


def _expansion(n, edges, positions):
    """The full-leak diag map's expanded char-poly coefficients, and per
    cofactor position the number of its non-constant coefficients."""
    matrix = compartmental_matrix(make_model(n, edges, {1}, {1}, range(1, n + 1)), "diag")
    polys = char_poly_coeffs(matrix.entries, matrix.table, positions)
    live = {
        pos: sum(1 for p in polys[n + (n - 1) * k : n + (n - 1) * (k + 1)] if any(p.packed))
        for k, pos in enumerate(positions)
    }
    return polys[:n], live


def _block_sizes(n, edges, positions):
    """How many rows ``identcore.output_rows`` gives each cofactor position,
    on all n vertices as the census ranks them."""
    p = PRIMES[0]
    slots = entry_slots(n, edges)
    matrix = [[0] * n for _ in range(n)]
    for (u, v), x in zip(slots, random_point(len(slots), random.Random(0), p)):
        matrix[u][v] = x
    pairs = [(i - 1, j - 1) for i, j in positions]
    (_, *blocks), _ = output_rows(matrix, range(n), slots, pairs, closure(n, edges).dist, random.Random(1), p)
    return dict(zip(positions, map(len, blocks)))


def _check_coefficient_counts(n, m):
    """The edge formula, from Floyd-Warshall distances, equals the number of
    non-constant Jacobian rows of every role tuple of every class at (n, m):
    the n char-poly coefficients and each cofactor's non-constant ones."""
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for _, edges, _ in representatives(n, m):
        char, live = _expansion(n, edges, positions)
        assert all(any(c.packed) for c in char)
        d = floyd_warshall(n, edges)
        dist = closure(n, edges).dist
        for cofactors in _expdim_tuples(n, edges):
            dists = [d[pos] for pos in cofactors if pos[0] != pos[1]]
            count = coefficient_count(n, dists, len(cofactors) - len(dists))
            assert count == n + sum(live[pos] for pos in cofactors), (edges, cofactors)
            assert census_mod._coefficient_count(n, dist, cofactors) == count


class TestProvenAnswers:
    """The census skips work whose answer is proven: the role predicates
    come from one breadth-first search per vertex, and a role tuple whose
    bound exceeds the edge formula's coefficient count is never ranked."""

    def test_closure_predicates_match_one_dfs_per_tuple(self):
        for n in range(1, 5):
            for m in range(n * (n - 1) + 1):
                for edges in enumerate_graphs(n, m):
                    graph = closure(n, edges)
                    assert (graph.common == (1 << n) - 1) == strongly_connected_raw(n, edges), edges
                    for a, b in permutations(range(1, n + 1), 2):
                        expected = sioc_via_augmentation(n, edges, (a,), (b,))
                        assert sioc(graph, (a,), (b,)) == expected, (edges, a, b)
                    for a, b, c in permutations(range(1, n + 1), 3):
                        expected = sioc_via_augmentation(n, edges, (a, c), (b,))
                        assert sioc(graph, (a, c), (b,)) == expected, (edges, a, b, c)

    def test_coefficient_count_matches_nonconstant_rows(self):
        for n, m in SMALL_ROWS:
            _check_coefficient_counts(n, m)

    @pytest.mark.slow
    @pytest.mark.skipif(not SLOW_ENABLED, reason="set IDENTKIT_RUN_SLOW_CENSUS=1 to run the n=5 tier")
    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_coefficient_count_matches_nonconstant_rows_n5(self, m):
        _check_coefficient_counts(5, m)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_blocks_hold_the_nonconstant_coefficients(self, m):
        """Each ``output_rows`` block has one row per non-constant cofactor
        coefficient of its position: d - dist(i, j), d - 1 at (i, i), none
        where i reaches no j."""
        n = 4
        positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for _, edges, _ in representatives(n, m):
            _, live = _expansion(n, edges, positions)
            assert _block_sizes(n, edges, positions) == live, edges

    def test_catenary_block_at_distance_31(self):
        """In = {1}, Out = {32} on the 32-compartment catenary: one row."""
        n = 32
        edges = [e for v in range(1, n) for e in ((v, v + 1), (v + 1, v))]
        assert _block_sizes(n, edges, [(1, n)]) == {(1, n): 1}


class TestFeasibility:
    def test_na_rules(self):
        f32 = row_feasibility(3, 2)
        assert not f32["strongly_connected"]
        assert not f32["expdim_in1_out1"] and not f32["expdim_in1_out23"]
        assert f32["sioc_in1_out2"] and f32["expdim_in1_out2"]
        f34 = row_feasibility(3, 4)
        assert f34["strongly_connected"] and f34["expdim_in1_out1"]
        assert not f34["expdim_in1_out2"]  # m + 2 > 2n - 1
        assert f34["expdim_in13_out2"]
        f47 = row_feasibility(4, 7)
        assert not f47["expdim_in1_out1"] and not f47["expdim_in1_out2"]
        assert f47["expdim_in1_out23"] and f47["expdim_in13_out2"]


class TestRows:
    def test_row_3_2(self):
        row = census_row(3, 2, seed=0)
        assert row.csv_record() == ["3", "2", "15", "NA", "NA", "NA", "1", "1", "3", "3"]

    def test_row_3_3(self):
        row = census_row(3, 3, seed=0)
        assert row.csv_record() == ["3", "3", "20", "2", "2", "2", "7", "4", "10", "8"]

    def test_monotone_containment(self):
        for m in (2, 3, 4):
            row = census_row(3, m, seed=1)
            cells = row.cells()
            if cells["expdim_in1_out2"] is not None:
                assert cells["expdim_in1_out2"] <= cells["sioc_in1_out2"]
            if cells["expdim_in13_out2"] is not None:
                assert cells["expdim_in13_out2"] <= cells["sioc_in13_out2"]
            if cells["expdim_in1_out1"] is not None:
                assert cells["expdim_in1_out1"] <= cells["strongly_connected"]
            for value in cells.values():
                if value is not None:
                    assert value <= row.total

    def test_determinism_across_seeds_and_jobs(self):
        a = census_row(3, 3, seed=9, jobs=1)
        b = census_row(3, 3, seed=9, jobs=2)
        assert a == b
        c = census_row(3, 3, seed=10, jobs=1)
        assert a.cells() == c.cells()  # counts are seed-stable on this row

    def test_output_relabeling_symmetry(self):
        """Swapping vertex labels 2 and 3 maps the (In={1}, Out={2}) class
        onto (In={1}, Out={3}): the counts must agree."""
        n, m = 3, 3
        sioc_23 = expdim_23 = 0
        for edges in enumerate_graphs(n, m):
            model = make_model(n, edges, {1}, {3}, range(1, n + 1))
            if not sioc_via_augmentation(n, edges, model.inputs, model.outputs):
                continue
            sioc_23 += 1
            rank = expanded_rank(coefficient_map(model, "diag"), seed=3)
            if rank == m + 2:
                expdim_23 += 1
        row = census_row(n, m, seed=3)
        assert sioc_23 == row.sioc_in1_out2
        assert expdim_23 == row.expdim_in1_out2


class TestCheckpointing(object):
    def test_resume_from_checkpoint(self, tmp_path, monkeypatch):
        import identkit.census as census_mod

        path = str(tmp_path / "ckpt.json")
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 2)
        full = census_row(3, 3, seed=5)
        # simulate an interrupted run: process only the first block
        partial_counts = census_mod._eval_chunk((3, 3, representatives(3, 3)[:2], 5))
        with open(path, "w") as fh:
            json.dump(
                {
                    "format": census_mod.CHECKPOINT_FORMAT, "n": 3, "m": 3, "seed": 5,
                    "next_class": 2, "counts": partial_counts,
                },
                fh,
            )
        resumed = census_row(3, 3, seed=5, checkpoint_path=path)
        assert resumed == full
        state = json.load(open(path))
        assert state["next_class"] == len(representatives(3, 3)) == 4

    def test_resume_5_6_cut_at_first_block(self, tmp_path, monkeypatch):
        """A (5,6) run interrupted after its first checkpoint (class 100 of
        379) resumes to the uninterrupted row at one and two jobs."""

        class Interrupted(Exception):
            pass

        def interrupt(n, m, done, total):
            raise Interrupted(done, total)

        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 100)
        cut = str(tmp_path / "cut.json")
        with pytest.raises(Interrupted) as info:
            census_row(5, 6, seed=4, jobs=2, checkpoint_path=cut, progress=interrupt)
        assert info.value.args == (100, 379)
        assert json.load(open(cut))["next_class"] == 100
        full = census_row(5, 6, seed=4, jobs=2)
        for jobs in (1, 2):
            path = str(tmp_path / f"resume_{jobs}.json")
            shutil.copy(cut, path)
            assert census_row(5, 6, seed=4, jobs=jobs, checkpoint_path=path) == full

    def test_one_pool_serves_every_block(self, tmp_path, monkeypatch):
        import identkit.census as census_mod

        pools = []

        class CountingPool(multiprocessing.pool.Pool):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 1)
        monkeypatch.setattr(census_mod, "Pool", CountingPool)
        path = str(tmp_path / "ckpt.json")
        row = census_row(3, 3, seed=5, jobs=2, checkpoint_path=path)
        assert len(pools) == 1  # four blocks of one class each
        assert row == census_row(3, 3, seed=5, jobs=1)
        assert json.load(open(path))["next_class"] == 4

    def test_a_row_starts_no_more_workers_than_classes(self, monkeypatch):
        sizes = []

        class SizedPool(multiprocessing.pool.Pool):
            def __init__(self, processes=None, *args, **kwargs):
                sizes.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(census_mod, "Pool", SizedPool)
        assert len(representatives(3, 3)) == 4
        assert census_row(3, 3, seed=5, jobs=8) == census_row(3, 3, seed=5)
        assert sizes == [4]
        assert len(representatives(3, 0)) == 1
        assert census_row(3, 0, seed=5, jobs=2) == census_row(3, 0, seed=5)
        assert sizes == [4]  # one class: no pool

    def test_checkpoint_of_trials_format_is_ignored(self, tmp_path):
        """A finished checkpoint is reused, so doctored counts come back; one
        of the "class-blocks" format, whose rows at seed s worked mod
        PRIMES[0] for every s, is ignored and overwritten."""
        path = str(tmp_path / "ckpt.json")
        row = census_row(3, 3, seed=5, checkpoint_path=path)
        done = json.load(open(path))
        assert done == {
            "format": census_mod.CHECKPOINT_FORMAT, "n": 3, "m": 3, "seed": 5,
            "next_class": 4, "counts": [getattr(row, name) for name in CELLS],
        }
        doctored = {**done, "counts": [0] * 7}
        with open(path, "w") as fh:
            json.dump(doctored, fh)
        assert set(census_row(3, 3, seed=5, checkpoint_path=path).cells().values()) == {0}
        with open(path, "w") as fh:
            json.dump({**doctored, "format": "class-blocks", "trials": 1}, fh)
        assert census_row(3, 3, seed=5, checkpoint_path=path) == row
        assert json.load(open(path)) == done

    def test_checkpoint_of_labeled_census_is_ignored(self, tmp_path):
        """A file without the format field holds per-labeled-graph block counts,
        which differ from orbit counts: it must not be resumed."""
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump(
                {"n": 3, "m": 3, "seed": 5, "trials": 3, "next_index": 7, "counts": [1, 1, 1, 3, 2, 4, 3]},
                fh,
            )
        row = census_row(3, 3, seed=5, checkpoint_path=path)
        assert row == census_row(3, 3, seed=5)
        assert json.load(open(path))["format"] == census_mod.CHECKPOINT_FORMAT

    def test_checkpoint_of_index_blocks_is_ignored(self, tmp_path):
        """A file of format "orbit" counts the classes up to a labeled index,
        not up to a class position: it must not be resumed."""
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump(
                {"format": "orbit", "n": 3, "m": 3, "seed": 5, "trials": 3, "next_index": 2,
                 "next_class": 2, "counts": [0] * 7},
                fh,
            )
        assert census_row(3, 3, seed=5, checkpoint_path=path) == census_row(3, 3, seed=5)

    def test_mismatched_checkpoint_is_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump({"n": 3, "m": 3, "seed": 999, "next_index": 5, "counts": [0] * 7}, fh)
        row = census_row(3, 3, seed=5, checkpoint_path=path)
        assert row == census_row(3, 3, seed=5)


class TestOutputs:
    def test_csv_and_sidecar(self, tmp_path):
        rows = [census_row(3, 2, seed=0), census_row(3, 3, seed=0)]
        csv_path = str(tmp_path / "census.csv")
        write_csv(rows, csv_path)
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "n,m,total," + ",".join(CELLS)
        assert lines[1] == "3,2,15,NA,NA,NA,1,1,3,3"
        meta = str(tmp_path / "census.meta.json")
        write_sidecar(rows, meta, seed=0, runtime_seconds=1.5)
        doc = json.load(open(meta))
        assert set(doc) == {"seed", "runtime_seconds", "rows"}
        assert doc["seed"] == 0 and len(doc["rows"]) == 2
        assert doc["rows"][0]["strongly_connected"] is None

    def test_discrepancy_report_generates_the_classes_once(self, monkeypatch):
        calls = []

        def counted(n, m):
            calls.append((n, m))
            return representatives(n, m)

        monkeypatch.setattr(census_mod, "representatives", counted)
        report = discrepancy_report(4, 5, "expdim_in1_out1", 54, seeds=(0, 1, 2))
        assert calls == [(4, 5)]
        assert report["counts_by_seed"] == {"0": 66, "1": 66, "2": 66}

    def test_discrepancy_report_needs_a_seed(self):
        with pytest.raises(ValueError, match="seed"):
            discrepancy_report(3, 3, "strongly_connected", 2, seeds=())

    def test_cell_members_listing(self):
        hits = cell_members(3, 2, "sioc_in1_out2", seed=0)
        assert len(hits) == 1
        assert hits[0][1] == ((1, 3), (3, 2))
