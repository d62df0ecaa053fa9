"""Input-output equation assembly and coefficient map tests."""

from __future__ import annotations

import pytest

from identkit.graphprops import dist, is_output_connectable, output_reachable_set
from identkit.ioeq import (
    NoInputReachesOutput,
    coefficient_map,
    expected_coefficient_count,
    io_equation,
    render_io_equation,
)
from identkit.model import MODE_DIAG, MODE_EXPLICIT, Param, compartmental_matrix, make_model
from identkit.sympoly import SparsePoly, char_matrix

from conftest import cascade_exchange, fan_in_bypass, random_model, three_cycle
from oracles import leibniz_det, shortest_path_monomials
from test_sympoly import mono, a21, a32, a23, a34, a43, a11, a22, a33, a44


class TestWorkedExampleEquation:
    """Term-for-term reproduction of the 4-compartment worked example."""

    def test_full_equation(self):
        eq = io_equation(cascade_exchange(), 2, MODE_DIAG)
        t = eq.table
        assert eq.order == 4
        c1 = -(mono(t, a11) + mono(t, a22) + mono(t, a33) + mono(t, a44))
        c2 = (
            mono(t, a11, a22)
            - mono(t, a23, a32)
            + mono(t, a11, a33)
            + mono(t, a22, a33)
            - mono(t, a34, a43)
            + mono(t, a11, a44)
            + mono(t, a22, a44)
            + mono(t, a33, a44)
        )
        c3 = (
            mono(t, a11, a23, a32)
            - mono(t, a11, a22, a33)
            + mono(t, a11, a34, a43)
            + mono(t, a22, a34, a43)
            - mono(t, a11, a22, a44)
            + mono(t, a23, a32, a44)
            - mono(t, a11, a33, a44)
            - mono(t, a22, a33, a44)
        )
        c4 = (
            -mono(t, a11, a22, a34, a43)
            - mono(t, a11, a23, a32, a44)
            + mono(t, a11, a22, a33, a44)
        )
        assert list(eq.lhs) == [c1, c2, c3, c4]
        u1 = dict(eq.rhs)[1]
        assert list(u1) == [
            SparsePoly.zero(t),
            mono(t, a21),
            -mono(t, a21, a33) - mono(t, a21, a44),
            mono(t, a21, a33, a44) - mono(t, a21, a34, a43),
        ]

    def test_coefficient_map_has_seven_entries(self):
        assert len(coefficient_map(cascade_exchange(), MODE_DIAG)) == 7

    def test_rendering_mentions_each_order(self):
        text = render_io_equation(io_equation(cascade_exchange(), 2, MODE_DIAG))
        assert text.startswith("y2^(4)")
        assert "u1''" in text and "= (a21)*u1''" in text


class TestSmallEquations:
    def test_single_compartment(self):
        m = make_model(1, [], {1}, {1}, {1})
        eq = io_equation(m, 1, MODE_EXPLICIT)
        t = eq.table
        assert list(eq.lhs) == [mono(t, Param.leak(1))]
        assert list(dict(eq.rhs)[1]) == [SparsePoly.const(t, 1)]
        assert render_io_equation(eq) == "y1' + (a01)*y1 = u1"

    def test_two_chain_diag(self):
        m = make_model(2, [(1, 2)], {1}, {2}, {1, 2})
        eq = io_equation(m, 2, MODE_DIAG)
        t = eq.table
        d1, d2 = Param.diag(1), Param.diag(2)
        assert list(eq.lhs) == [-(mono(t, d1) + mono(t, d2)), mono(t, d1, d2)]
        assert list(dict(eq.rhs)[1]) == [SparsePoly.zero(t), mono(t, Param.edge(1, 2))]

    def test_no_input_reaches_output(self):
        m = make_model(3, [(3, 2)], {1}, {2}, set())
        with pytest.raises(NoInputReachesOutput):
            io_equation(m, 2)

    def test_output_vertex_required(self):
        from identkit.graphprops import PreconditionViolated

        with pytest.raises(PreconditionViolated):
            io_equation(cascade_exchange(), 3)

    def test_equation_only_uses_reachable_subgraph(self):
        # vertex 3 cannot reach output 2; its diagonal parameter must not appear
        m = make_model(3, [(1, 2), (2, 3)], {1}, {2}, {1, 2, 3})
        eq = io_equation(m, 2, MODE_DIAG)
        d3 = eq.table.index_of(Param.diag(3))
        for poly in list(eq.lhs) + list(dict(eq.rhs)[1]):
            assert all(e[d3] == 0 for e in poly.terms)


class TestCoefficientMapShape:
    def test_fan_in_bypass_entry_count(self):
        # all three vertices reach the output; lhs has 3 coefficients and
        # u1 has orders 1 and 0 (dist(1,2) = 1)
        cm = coefficient_map(fan_in_bypass(), MODE_DIAG)
        assert len(cm) == 5

    def test_single_compartment_map(self):
        m = make_model(1, [], {1}, {1}, {1})
        cm = coefficient_map(m, MODE_EXPLICIT)
        assert len(cm) == 1
        assert cm.polys[0] == mono(cm.table, Param.leak(1))

    def test_provenance_ordering(self):
        """The map lists the left-hand side by descending order, then the
        input's non-monic right-hand side coefficients by descending order."""
        m = cascade_exchange()
        cm = coefficient_map(m, MODE_DIAG)
        eq = io_equation(m, 2, MODE_DIAG)
        ((i, rhs),) = eq.rhs
        assert (eq.order, i) == (4, 1) and rhs[0].is_zero()
        assert cm.polys == eq.lhs + rhs[1:]

    def test_minimality_warning_for_multi_output_without_sc(self):
        m = make_model(3, [(1, 2), (1, 3)], {1}, {2, 3}, {1, 2, 3})
        assert coefficient_map(m, MODE_DIAG).minimality_warning
        assert not coefficient_map(three_cycle(outputs={2, 3}), MODE_DIAG).minimality_warning


class TestExpectedCoefficientCount:
    def test_worked_example(self):
        assert expected_coefficient_count(cascade_exchange()) == 7

    def test_input_equals_output(self):
        for n in (1, 2, 3, 4):
            edges = [(v, v + 1) for v in range(1, n)] + [(n, 1)] if n > 1 else []
            m = make_model(n, edges, {1}, {1}, range(1, n + 1))
            assert expected_coefficient_count(m) == 2 * n - 1

    def test_multi_output_three_cycle(self):
        m = three_cycle(inputs={1}, outputs={2, 3})
        assert expected_coefficient_count(m) == 9 - (1 + 2)
        # verified against the actual map: distinct coefficients of both equations
        assert len(coefficient_map(m, MODE_DIAG)) == 6

    def test_not_applicable_cases(self):
        # leaks missing on an output compartment
        m = make_model(2, [(1, 2), (2, 1)], {1}, {2}, {1})
        assert expected_coefficient_count(m) is None
        # neither single input nor single output
        m2 = make_model(2, [(1, 2), (2, 1)], {1, 2}, {1, 2}, {1, 2})
        assert expected_coefficient_count(m2) is None
        m3 = make_model(
            4,
            [(1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1), (2, 4), (4, 2)],
            {1, 2},
            {3, 4},
            {1, 2, 3, 4},
        )
        assert expected_coefficient_count(m3) is None


class TestCountFormulaProperty:
    def test_nonzero_coefficient_counts(self, rng):
        """Under the count formula's hypotheses the number of distinct
        nonzero non-monic coefficients matches the closed form."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 5))
            if not m.in_union_out <= m.leaks:
                continue
            expected = expected_coefficient_count(m)
            if expected is None:
                continue
            cm = coefficient_map(m, MODE_EXPLICIT)
            assert len(cm) == expected, m
            cases += 1


class TestHighestOrderInputCoefficient:
    def test_shortest_path_sum(self, rng):
        """For an input i distinct from the single output j, the top nonzero
        u_i coefficient sits at order |V_H|-1-dist(i,j) and equals the sum of
        shortest-path monomials."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(2, 5), full_leaks=True)
            if len(m.outputs) != 1 or not is_output_connectable(m):
                continue
            (j,) = m.outputs
            candidates = sorted(m.inputs - m.outputs)
            if not candidates:
                continue
            eq = io_equation(m, j, MODE_DIAG)
            d = eq.order
            for i in candidates:
                coeffs = dict(eq.rhs)[i]
                top = next((k for k, p in enumerate(coeffs) if not p.is_zero()), None)
                dij = dist(m, i, j)
                assert top is not None and isinstance(dij, int)
                top_order = d - 1 - top
                assert top_order == d - 1 - dij, (m, i)
                assert coeffs[top] == shortest_path_monomials(m, i, j, eq.table), (m, i)
            cases += 1


class TestMonomialFactorization:
    def test_coefficients_decompose_over_path_cycle_monomials(self, rng):
        """Every monomial of every coefficient is a product of self-cycle,
        cycle, and input->output path monomials (full-leak, single output,
        output connectable)."""
        from identkit.cyclespace import path_cycle_basis
        from oracles import decomposes_over

        cases = 0
        while cases < 60:
            m = random_model(rng, n_range=(2, 4), full_leaks=True)
            if len(m.outputs) != 1 or not is_output_connectable(m):
                continue
            cm = coefficient_map(m, MODE_DIAG)
            basis = path_cycle_basis(m)
            # basis columns are ordered like the diag-mode parameter list
            assert list(basis.columns) == list(cm.param_order)
            rows = [list(r) for r in basis.exponent_matrix]
            for poly in cm.polys:
                for e in poly.terms:
                    assert decomposes_over(e[:-1], rows), (m, poly)
            cases += 1


class TestSubgraphEquivalence:
    def test_full_matrix_equation_factors_through_subgraph(self, rng):
        """The whole-matrix construction equals the reachable-subgraph
        construction times the characteristic polynomial of the dropped
        block."""
        cases = 0
        while cases < 120:
            m = random_model(rng, n_range=(2, 5))
            outs = sorted(m.outputs)
            j = outs[0]
            reach = output_reachable_set(m, j)
            if len(reach) == m.n or not (m.inputs & reach):
                continue  # want a proper subgraph
            mode = MODE_DIAG if m.leaks == frozenset(m.vertices) else MODE_EXPLICIT
            table = m.vartable(mode)
            full = compartmental_matrix(m, mode, table)
            cm_full = char_matrix(full.entries, table)
            det_full = leibniz_det(cm_full, table)

            keep = sorted(reach)
            sub_entries = [[full.entry(u, v) for v in keep] for u in keep]
            det_sub = leibniz_det(char_matrix(sub_entries, table), table)
            rest = sorted(set(m.vertices) - reach)
            rest_entries = [[full.entry(u, v) for v in rest] for u in rest]
            det_rest = leibniz_det(char_matrix(rest_entries, table), table)
            assert det_full == det_sub * det_rest, m

            pos = {v: idx + 1 for idx, v in enumerate(keep)}
            for i in sorted(m.inputs & reach):
                if i == j:
                    continue
                fi, fj = i, j  # original positions
                sub_minor = [
                    [char_matrix(sub_entries, table)[r][c] for c in range(len(keep)) if c != pos[j] - 1]
                    for r in range(len(keep))
                    if r != pos[i] - 1
                ]
                minor_sub = leibniz_det(sub_minor, table)
                if (pos[i] + pos[j]) % 2:
                    minor_sub = -minor_sub
                full_minor = [
                    [cm_full[r][c] for c in range(m.n) if c != fj - 1]
                    for r in range(m.n)
                    if r != fi - 1
                ]
                minor_full = leibniz_det(full_minor, table)
                if (fi + fj) % 2:
                    minor_full = -minor_full
                assert minor_full == minor_sub * det_rest, (m, i, j)
            cases += 1
