"""Cycle/path enumeration and exponent-rank tests."""

from __future__ import annotations

import pytest

from identkit.cyclespace import (
    enumerate_io_paths,
    enumerate_simple_cycles,
    incidence_matrix,
    incidence_rank,
    int_matrix_rank,
    path_cycle_rank,
)
from identkit.graphprops import (
    CapExceeded,
    is_output_connectable,
    is_strongly_connected,
    is_strongly_input_output_connected,
)
from identkit.model import ModelError, make_model

from conftest import (
    cascade_exchange,
    dual_io_hub,
    dual_io_square,
    random_model,
    three_cycle,
)
from oracles import all_io_paths_brute, all_simple_cycles_brute, fraction_rank


class TestCycleEnumeration:
    def test_cascade_has_two_exchanges(self):
        cycles = enumerate_simple_cycles(cascade_exchange())
        assert cycles == [
            ((2, 3), (3, 2)),
            ((3, 4), (4, 3)),
        ]

    def test_three_cycle(self):
        assert len(enumerate_simple_cycles(three_cycle())) == 1

    def test_complete_digraph_on_three(self):
        m = make_model(3, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j], {1}, {1}, set())
        cycles = enumerate_simple_cycles(m)
        assert len(cycles) == 5
        assert sum(1 for c in cycles if len(c) == 2) == 3
        assert sum(1 for c in cycles if len(c) == 3) == 2

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            m = random_model(rng, n_range=(1, 5))
            got = {frozenset(c) for c in enumerate_simple_cycles(m)}
            assert got == all_simple_cycles_brute(m), m

    def test_cap(self):
        m = make_model(5, [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j], {1}, {1}, set())
        with pytest.raises(CapExceeded):
            enumerate_simple_cycles(m, cap=3)

    def test_negative_cap_rejected_before_any_walk(self):
        for enumerate_walks in (enumerate_simple_cycles, enumerate_io_paths, path_cycle_rank):
            with pytest.raises(ModelError, match="cap must be at least 0"):
                enumerate_walks(make_model(1, [], {1}, {1}, set()), cap=-1)

    def test_zero_cap(self):
        assert enumerate_simple_cycles(make_model(2, [(1, 2)], {1}, {2}, set()), cap=0) == []
        with pytest.raises(CapExceeded):
            enumerate_simple_cycles(three_cycle(), cap=0)


class TestPathEnumeration:
    def test_cap(self):
        """K5 has 1 + 3 + 6 + 6 = 16 simple paths from 1 to 5."""
        m = make_model(5, [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j], {1}, {5}, set())
        assert len(enumerate_io_paths(m, cap=16)) == 16
        with pytest.raises(CapExceeded):
            enumerate_io_paths(m, cap=15)

    def test_cascade_single_path(self):
        assert enumerate_io_paths(cascade_exchange()) == [(((1, 2)),)]

    def test_dual_io_hub_paths(self):
        paths = enumerate_io_paths(dual_io_hub())
        assert {p for p in paths} == {
            ((2, 3),),
            ((2, 4),),
            ((1, 2), (2, 3)),
            ((1, 2), (2, 4)),
        }

    def test_lone_vertex_no_empty_path(self):
        m = make_model(1, [], {1}, {1}, {1})
        assert enumerate_io_paths(m) == []

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            m = random_model(rng, n_range=(1, 5))
            got = {p for p in enumerate_io_paths(m)}
            assert got == all_io_paths_brute(m), m


class TestExactRank:
    def test_against_fraction_elimination(self, rng):
        for _ in range(250):
            rows = rng.randint(0, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            assert int_matrix_rank(mat) == fraction_rank(mat), mat


class TestPathCycleRank:
    def test_cascade(self):
        rank, basis = path_cycle_rank(cascade_exchange())
        assert rank == 7 == len(cascade_exchange().edges) + 2
        assert set(basis.monomial_strings()) == {
            "a11", "a22", "a33", "a44", "a21", "a32*a23", "a43*a34",
        }

    def test_dual_io_hub_rank_deficit(self):
        rank, basis = path_cycle_rank(dual_io_hub())
        assert len(basis.exponent_matrix) == 11
        assert rank == 10

    def test_dual_io_square_full(self):
        rank, _ = path_cycle_rank(dual_io_square())
        assert rank == 12 == 8 + 4

    def test_sioc_rank_equality(self, rng):
        """Strongly input-output connected models have exactly
        |E| + |In u Out| independent paths and cycles."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 6), full_leaks=True)
            if not is_strongly_input_output_connected(m):
                continue
            rank, _ = path_cycle_rank(m)
            assert rank == len(m.edges) + len(m.in_union_out), m
            cases += 1

    def test_output_connectable_upper_bound(self, rng):
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 6), full_leaks=True)
            if len(m.outputs) != 1 or not is_output_connectable(m):
                continue
            rank, _ = path_cycle_rank(m)
            assert rank <= len(m.edges) + len(m.in_union_out), m
            cases += 1

    def test_exponent_vectors_are_binary_and_on_edges(self, rng):
        for _ in range(100):
            m = random_model(rng, n_range=(1, 5))
            _, basis = path_cycle_rank(m)
            edge_cols = len(m.edges)
            for row, item in zip(
                basis.exponent_matrix[m.n :],
                list(basis.cycles) + list(basis.io_paths),
            ):
                assert set(row) <= {0, 1}
                support = {basis.columns[k] for k, x in enumerate(row) if x}
                from identkit.model import Param

                assert support == {Param.edge(s, d) for s, d in item}


class TestIncidence:
    def test_connected_rank(self, rng):
        cases = 0
        while cases < 150:
            m = random_model(rng, n_range=(1, 6))
            rank = incidence_rank(m)
            comps = _component_count(m)
            assert rank == m.n - comps, m
            cases += 1

    def test_column_structure(self):
        m = cascade_exchange()
        inc = incidence_matrix(m)
        for col in range(len(m.edges)):
            vals = [inc[r][col] for r in range(m.n)]
            assert sorted(vals) == [-1] + [0] * (m.n - 2) + [1]

    def test_single_edge(self):
        m = make_model(2, [(1, 2)], {1}, {2}, set())
        assert incidence_rank(m) == 1

    def test_two_components(self):
        m = make_model(4, [(1, 2), (3, 4)], {1}, {2}, set())
        assert incidence_rank(m) == 2

    def test_cycle_space_dimension_for_strongly_connected(self, rng):
        """For strongly connected graphs the directed-cycle indicator vectors
        span the kernel of the incidence matrix: dimension |E| - |V| + 1."""
        cases = 0
        while cases < 100:
            m = random_model(rng, n_range=(1, 5))
            if not is_strongly_connected(m):
                continue
            cycles = enumerate_simple_cycles(m)
            cols = {e: k for k, e in enumerate(m.edges)}
            rows = []
            for cyc in cycles:
                row = [0] * len(m.edges)
                for e in cyc:
                    row[cols[e]] = 1
                rows.append(row)
            cycle_rank = int_matrix_rank(rows)
            kernel_dim = len(m.edges) - incidence_rank(m)
            assert cycle_rank == len(m.edges) - m.n + 1 == kernel_dim, m
            cases += 1


def _component_count(m) -> int:
    parent = list(range(m.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in m.edges:
        rs, rd = find(s), find(d)
        if rs != rd:
            parent[rs] = rd
    return len({find(v) for v in m.vertices})
