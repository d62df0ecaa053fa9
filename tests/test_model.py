"""Model validation, serialization, and compartmental-matrix tests."""

from __future__ import annotations

import pytest

from identkit.model import (
    MODE_DIAG,
    MODE_EXPLICIT,
    MAX_VERTICES,
    DuplicateEdge,
    EmptyInputSet,
    EmptyOutputSet,
    BadModelFile,
    ModeRequiresFullLeaks,
    Param,
    SelfLoop,
    VertexOutOfRange,
    compartmental_matrix,
    from_dict,
    from_json,
    load_model,
    make_model,
)
from identkit.sympoly import SparsePoly, VarTable

from conftest import cascade_exchange, random_model


class TestValidation:
    def test_smallest_legal_model(self):
        m = make_model(1, [], {1}, {1}, {1})
        assert m.n == 1 and m.edges == ()

    def test_worked_example_is_valid(self):
        m = cascade_exchange()
        assert m.edges == ((1, 2), (2, 3), (3, 2), (3, 4), (4, 3))

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            make_model(2, [(1, 1)], {1}, {1}, set())

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            make_model(2, [(1, 2), (1, 2)], {1}, {2}, set())

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            make_model(2, [(1, 3)], {1}, {2}, set())
        with pytest.raises(VertexOutOfRange):
            make_model(2, [(1, 2)], {1}, {5}, set())

    def test_vertex_count_cap(self):
        assert make_model(MAX_VERTICES, [], {1}, {1}, set()).n == MAX_VERTICES
        with pytest.raises(VertexOutOfRange, match=f"<= {MAX_VERTICES}"):
            make_model(MAX_VERTICES + 1, [], {1}, {1}, set())

    def test_empty_input_and_output(self):
        with pytest.raises(EmptyInputSet):
            make_model(2, [(1, 2)], set(), {2}, set())
        with pytest.raises(EmptyOutputSet):
            make_model(2, [(1, 2)], {1}, set(), set())

    def test_edges_are_canonically_sorted(self):
        m = make_model(3, [(3, 1), (1, 2)], {1}, {2}, set())
        assert m.edges == ((1, 2), (3, 1))


class TestSerialization:
    def test_round_trip_identity(self, rng):
        for _ in range(200):
            m = random_model(rng)
            assert from_json(m.to_json()) == m

    def test_unknown_keys_rejected(self):
        with pytest.raises(BadModelFile):
            from_dict({"n": 1, "edges": [], "in": [1], "out": [1], "leak": [], "extra": 1})

    def test_missing_keys_rejected(self):
        with pytest.raises(BadModelFile):
            from_dict({"n": 1, "edges": []})

    def test_unparsable_text_is_a_bad_model_file(self, tmp_path):
        """Deep nesting exhausts the parser's recursion, and a file that is
        not UTF-8 cannot be decoded: both are BadModelFile."""
        with pytest.raises(BadModelFile):
            from_json("[" * 200_000)
        path = tmp_path / "model.json"
        path.write_bytes('{"n": 1, "edges": [], "in": [1], "out": [1]}'.encode("utf-16"))
        with pytest.raises(BadModelFile, match="UTF-8"):
            load_model(str(path))

    def test_leak_key_optional(self):
        m = from_dict({"n": 2, "edges": [[1, 2]], "in": [1], "out": [2]})
        assert m.leaks == frozenset()

    @pytest.mark.parametrize(
        "change",
        [
            {"n": 2.7},
            {"n": 2.0},
            {"n": "2"},
            {"n": True},
            {"in": "12"},
            {"in": 1},
            {"out": [2.0]},
            {"leak": [True]},
            {"leak": {"1": 1}},
            {"edges": [["1", "2"]]},
            {"edges": [[True, 2]]},
            {"edges": [[1, 2, 3]]},
            {"edges": [(1, 2)]},
            {"edges": {"1": 2}},
        ],
        ids=repr,
    )
    def test_only_json_integers_and_lists_accepted(self, change):
        """Nothing is converted: a file that does not hold integers and lists
        where the format has them is rejected, not read as another model."""
        doc = {"n": 2, "edges": [[1, 2]], "in": [1], "out": [2], "leak": [1]}
        from_dict(doc)
        with pytest.raises(BadModelFile, match="integer"):
            from_dict({**doc, **change})


def var(table, p):
    return SparsePoly.var(table, p)


class TestCompartmentalMatrix:
    def test_explicit_matrix_of_worked_example(self):
        mat = compartmental_matrix(cascade_exchange(), MODE_EXPLICIT)
        t = mat.table
        e = Param.edge
        leak = Param.leak
        assert mat.entry(1, 1) == -var(t, leak(1)) - var(t, e(1, 2))
        assert mat.entry(2, 2) == -var(t, leak(2)) - var(t, e(2, 3))
        assert mat.entry(3, 3) == -var(t, leak(3)) - var(t, e(3, 2)) - var(t, e(3, 4))
        assert mat.entry(4, 4) == -var(t, leak(4)) - var(t, e(4, 3))
        assert mat.entry(2, 1) == var(t, e(1, 2))
        assert mat.entry(2, 3) == var(t, e(3, 2))
        assert mat.entry(1, 2).is_zero() and mat.entry(4, 1).is_zero()

    def test_diag_matrix_of_worked_example(self):
        mat = compartmental_matrix(cascade_exchange(), MODE_DIAG)
        t = mat.table
        for v in range(1, 5):
            assert mat.entry(v, v) == var(t, Param.diag(v))

    def test_diag_mode_requires_full_leaks(self):
        m = make_model(2, [(1, 2)], {1}, {2}, {1})
        with pytest.raises(ModeRequiresFullLeaks):
            compartmental_matrix(m, MODE_DIAG)

    def test_leakless_isolated_vertex_diagonal_is_zero(self):
        m = make_model(1, [], {1}, {1}, set())
        mat = compartmental_matrix(m, MODE_EXPLICIT)
        assert mat.entry(1, 1).is_zero()

    def test_column_sums_are_minus_leaks(self, rng):
        """Mass balance: explicit-mode column j sums to -a0j when j leaks,
        else to zero."""
        for _ in range(200):
            m = random_model(rng)
            mat = compartmental_matrix(m, MODE_EXPLICIT)
            t = mat.table
            for j in m.vertices:
                total = SparsePoly.zero(t)
                for i in m.vertices:
                    total = total + mat.entry(i, j)
                expected = -var(t, Param.leak(j)) if j in m.leaks else SparsePoly.zero(t)
                assert total == expected, (m, j)

    def test_mode_consistency_under_substitution(self, rng):
        """Substituting a_ii := -a_0i - sum of outflows into the
        diagonal-generic matrix recovers the explicit matrix entrywise."""

        def substitute(poly, table, mapping):
            out = SparsePoly.zero(table)
            for e, c in poly.terms.items():
                term = SparsePoly.const(table, c)
                for idx, k in enumerate(e[:-1]):
                    if not k:
                        continue
                    p = table.params[idx]
                    base = mapping.get(p, SparsePoly.var(table, p))
                    for _ in range(k):
                        term = term * base
                out = out + term
            return out

        for _ in range(100):
            m = random_model(rng, full_leaks=True)
            combined = VarTable(
                tuple(m.params(MODE_EXPLICIT)) + tuple(Param.diag(v) for v in m.vertices)
            )
            explicit = compartmental_matrix(m, MODE_EXPLICIT, combined)
            diag = compartmental_matrix(m, MODE_DIAG, combined)
            mapping = {Param.diag(v): explicit.entry(v, v) for v in m.vertices}
            for i in m.vertices:
                for j in m.vertices:
                    got = substitute(diag.entry(i, j), combined, mapping)
                    assert got == explicit.entry(i, j), (m, i, j)
