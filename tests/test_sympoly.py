"""Polynomial kernel tests: ring ops, characteristic polynomials, minors,
and equivalence with brute-force and sympy oracles; and the oracles'
gradients at a point (``oracles.jacobian_at``) against sympy."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identkit.identcore import PRIMES, random_point
from identkit.ioeq import coefficient_map
from identkit.model import (
    MODE_DIAG,
    MODE_EXPLICIT,
    Param,
    compartmental_matrix,
    load_model,
    make_model,
)
from identkit.sympoly import (
    MAX_EXPONENT,
    SparsePoly,
    VariableMismatch,
    VarTable,
    char_matrix,
    char_poly_coeffs,
)

from conftest import cascade_exchange, random_model
from oracles import jacobian_at, leibniz_det, sympy_gradient_mod_p, sympy_partial, sympy_poly

P = 2**61 - 1  # a Mersenne prime
FIXTURE_MODELS = sorted(
    path
    for path in (Path(__file__).parent.parent / "fixtures").glob("*.json")
    if not path.name.startswith("construct")
)


def mono(table, *params, coeff=1):
    out = SparsePoly.const(table, coeff)
    for p in params:
        out = out * SparsePoly.var(table, p)
    return out


def table_for(*params):
    return VarTable(tuple(params))


a21, a32, a23, a34, a43 = (
    Param("edge", 2, 1),
    Param("edge", 3, 2),
    Param("edge", 2, 3),
    Param("edge", 3, 4),
    Param("edge", 4, 3),
)
a11, a22, a33, a44 = (Param.diag(v) for v in (1, 2, 3, 4))


class TestRingOps:
    def test_partial_of_product(self):
        t = table_for(a21, a32)
        assert jacobian_at([mono(t, a21, a32)], (2, 3), P) == [[3, 2]]

    def test_expand_two_linear_factors(self):
        t = table_for(a11, a22)
        d = SparsePoly.d_var(t)
        lhs = (d - mono(t, a11)) * (d - mono(t, a22))
        expected = d * d - (mono(t, a11) + mono(t, a22)) * d + mono(t, a11, a22)
        assert lhs == expected

    def test_partial_with_sign(self):
        t = table_for(a23, a32, a11, a22)
        poly = mono(t, a11, a22) - mono(t, a23, a32)
        assert jacobian_at([poly], (2, 3, 5, 7), P) == [[P - 3, P - 2, 7, 5]]

    def test_variable_mismatch(self):
        t1, t2 = table_for(a21), table_for(a32)
        with pytest.raises(VariableMismatch):
            _ = SparsePoly.var(t1, a21) + SparsePoly.var(t2, a32)
        with pytest.raises(VariableMismatch):
            t1.index_of(a32)

    def test_zero_normalization(self):
        t = table_for(a21)
        p = mono(t, a21) - mono(t, a21)
        assert p.is_zero() and p.terms == {}

    def test_str_rendering(self):
        t = table_for(a21, a33)
        assert str(mono(t, a21, coeff=-1) + mono(t, a33, a33)) == "a33^2 - a21"
        assert str(SparsePoly.zero(t)) == "0"


@st.composite
def polys_over_one_table(draw, count, max_exponent=MAX_EXPONENT):
    """``count`` polynomials over one random table of arity 1..40 (no
    parameters at arity 1), with exponents up to ``max_exponent`` in every
    slot, D included."""
    table = VarTable(tuple(f"x{i}" for i in range(draw(st.integers(0, 39)))))
    exponents = st.tuples(*[st.integers(0, max_exponent)] * table.arity)
    terms = st.dictionaries(exponents, st.integers(-9, 9), max_size=5)
    return table, [draw(terms) for _ in range(count)]


class TestPackedMonomials:
    """Monomials are packed ints; ``terms`` decodes them back."""

    @settings(max_examples=60, deadline=None)
    @given(polys_over_one_table(1))
    def test_round_trip(self, drawn):
        table, (terms,) = drawn
        assert SparsePoly(table, terms).terms == {e: c for e, c in terms.items() if c}

    @pytest.mark.parametrize("nparams", [0, 1, 39])
    def test_round_trip_extremes(self, nparams):
        t = VarTable(tuple(range(nparams)))
        top = (MAX_EXPONENT,) * t.arity
        low = tuple(MAX_EXPONENT * (i % 2) for i in range(t.arity))
        terms = {top: -3, low: 2, (0,) * t.arity: 1}
        assert SparsePoly(t, terms).terms == terms

    @settings(max_examples=40, deadline=None)
    @given(polys_over_one_table(2, max_exponent=63))
    def test_ring_ops_match_sympy(self, drawn):
        table, (ta, tb) = drawn
        a, b = SparsePoly(table, ta), SparsePoly(table, tb)
        sa, sb = sympy_poly(a)[0], sympy_poly(b)[0]
        assert sympy_poly(a + b)[0] == sa + sb
        assert sympy_poly(a - b)[0] == sa - sb
        assert sympy_poly(a * b)[0] == sa * sb

    @settings(max_examples=40, deadline=None)
    @given(polys_over_one_table(1), st.integers(0, MAX_EXPONENT))
    def test_d_coefficient_matches_sympy(self, drawn, power):
        table, (terms,) = drawn
        poly = SparsePoly(table, terms)
        element, gens = sympy_poly(poly)
        top = max({e[-1] for e in terms} | {power})
        coeffs = poly.d_coefficients(top)
        assert len(coeffs) == top + 1
        for k in range(top + 1):
            assert sympy_poly(coeffs[top - k])[0] == element.coeff_wrt(gens[-1], k)

    def test_exponent_overflow_raises(self):
        t = table_for(a21)
        x64 = SparsePoly(t, {(64, 0): 1})
        with pytest.raises(OverflowError):
            _ = x64 * x64
        d64 = SparsePoly(t, {(0, 64): 1})
        with pytest.raises(OverflowError):
            _ = d64 * d64
        assert (x64 * d64).terms == {(64, 64): 1}
        for bad in ((128, 0), (-1, 0), (0, 128), (0, -1)):
            with pytest.raises(OverflowError):
                SparsePoly(t, {bad: 1})


class TestEvaluate:
    """Gradients at a point, by ``jacobian_at``."""

    def test_product(self):
        t = table_for(a21, a32)
        assert jacobian_at([mono(t, a21, a21, a32)], (2, 3), P) == [[12, 4]]

    def test_zero_poly(self):
        t = table_for(a21)
        assert jacobian_at([SparsePoly.zero(t)], (7,), P) == [[0]]

    def test_d_is_not_evaluable(self):
        t = table_for(a21)
        with pytest.raises(VariableMismatch):
            jacobian_at([SparsePoly.d_var(t)], (1,), P)

    def test_modular(self):
        t = table_for(a21)
        p = mono(t, a21, a21, coeff=5)
        assert jacobian_at([p], (-3,), 7) == [[(2 * 5 * -3) % 7]]

    def test_wrong_point_length(self):
        t = table_for(a21, a32)
        with pytest.raises(VariableMismatch):
            jacobian_at([mono(t, a21)], (1,), P)

    def test_values_zero_mod_p(self, rng):
        """Values that are 0 mod p, in factors with exponent 1 and above,
        give the oracle's rows: no value is inverted."""
        t = table_for(a21, a32)
        assert jacobian_at([mono(t, a21, a32)], (2, 7), 7) == [[0, 2]]
        assert jacobian_at([mono(t, a21, a32), mono(t, a21, a21, a32)], (0, 5), 7) == [[5, 0], [0, 0]]
        t = table_for(a21, a32, a23, a11)
        for _ in range(100):
            polys = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 6)):
                    terms[tuple(rng.randint(0, 3) for _ in t.params) + (0,)] = rng.randint(-9, 9)
                polys.append(SparsePoly(t, terms))
            p = rng.choice((7, 11) + PRIMES)
            values = [rng.choice((0, p, -2 * p, rng.randint(1, 10**4))) for _ in t.params]
            values[rng.randrange(len(values))] = rng.choice((0, p))
            expected = [sympy_gradient_mod_p(poly, values, p) for poly in polys]
            assert jacobian_at(polys, values, p) == expected

    def test_char_poly_outputs_are_d_free(self):
        mat = compartmental_matrix(cascade_exchange(), MODE_DIAG)
        values = tuple(range(1, len(mat.table.params) + 1))
        jacobian_at(char_poly_coeffs(mat.entries, mat.table), values, P)  # must not raise


class TestJacobianAtOracle:
    """``jacobian_at`` equals sympy's derivatives, valued and reduced mod p."""

    @pytest.mark.parametrize("mode", [MODE_DIAG, MODE_EXPLICIT])
    @pytest.mark.parametrize("path", FIXTURE_MODELS, ids=lambda path: path.stem)
    def test_fixture_coefficient_maps(self, path, mode):
        model = load_model(str(path))
        if mode == MODE_DIAG:
            model = model.with_leaks(frozenset(model.vertices))
        cmap = coefficient_map(model, mode)
        rng = random.Random(f"{path.stem}:{mode}")
        for _ in range(2):
            p = rng.choice(PRIMES)
            values = random_point(len(cmap.param_order), rng, p)
            expected = [sympy_gradient_mod_p(poly, values, p) for poly in cmap.polys]
            assert jacobian_at(cmap.polys, values, p) == expected

    def test_random_polynomials_with_powers(self, rng):
        # Coefficient maps are multilinear (each parameter sits in one column
        # of A), so exponents above 1 are covered here.
        t = table_for(a21, a32, a23, a11)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exp = tuple(rng.randint(0, 3) for _ in t.params) + (0,)
                terms[exp] = rng.randint(-9, 9)
            poly = SparsePoly(t, terms)
            values = tuple(rng.choice((-1, 1)) * rng.randint(1, 10**4) for _ in t.params)
            p = rng.choice(PRIMES)
            assert jacobian_at([poly], values, p) == [sympy_gradient_mod_p(poly, values, p)]

    @pytest.mark.parametrize("nparams", [1, 2, 3, 5, 7])
    def test_powers_on_both_sides_of_the_half_split(self, rng, nparams):
        # Terms pair halves from small pools, so halves recur across terms
        # and polynomials; exponents up to 5 sit on both sides of the split.
        t = VarTable(tuple(f"x{i}" for i in range(nparams)))
        cut = nparams // 2
        for _ in range(30):
            lows = [tuple(rng.randint(0, 5) for _ in range(cut)) for _ in range(3)]
            highs = [tuple(rng.randint(0, 5) for _ in range(nparams - cut)) for _ in range(3)]
            polys = []
            for _ in range(rng.randint(1, 4)):
                terms = {}
                for _ in range(rng.randint(0, 8)):
                    terms[rng.choice(lows) + rng.choice(highs) + (0,)] = rng.randint(-9, 9)
                polys.append(SparsePoly(t, terms))
            values = tuple(rng.choice((-1, 1)) * rng.randint(1, 10**4) for _ in t.params)
            p = rng.choice(PRIMES)
            expected = [sympy_gradient_mod_p(poly, values, p) for poly in polys]
            assert jacobian_at(polys, values, p) == expected


class TestCharPoly:
    def test_top_coefficient_of_worked_example(self):
        mat = compartmental_matrix(cascade_exchange(), MODE_DIAG)
        coeffs = char_poly_coeffs(mat.entries, mat.table)
        t = mat.table
        expected = -(mono(t, a11) + mono(t, a22) + mono(t, a33) + mono(t, a44))
        assert coeffs[0] == expected

    def test_constant_coefficient_of_worked_example(self):
        mat = compartmental_matrix(cascade_exchange(), MODE_DIAG)
        coeffs = char_poly_coeffs(mat.entries, mat.table)
        t = mat.table
        expected = (
            -mono(t, a11, a22, a34, a43)
            - mono(t, a11, a23, a32, a44)
            + mono(t, a11, a22, a33, a44)
        )
        assert coeffs[-1] == expected

    def test_one_by_one(self):
        m = make_model(1, [], {1}, {1}, {1})
        mat = compartmental_matrix(m, MODE_DIAG)
        coeffs = char_poly_coeffs(mat.entries, mat.table)
        assert coeffs == [mono(mat.table, Param.diag(1), coeff=-1)]


class TestSignedMinor:
    """Cofactor coefficients follow the n char-poly coefficients."""

    def test_worked_example_input_to_output(self):
        mat = compartmental_matrix(cascade_exchange(), MODE_DIAG)
        t = mat.table
        coeffs = char_poly_coeffs(mat.entries, t, [(1, 2)])[4:]
        assert coeffs == [
            mono(t, a21),
            -mono(t, a21, a33) - mono(t, a21, a44),
            mono(t, a21, a33, a44) - mono(t, a21, a34, a43),
        ]

    def test_two_chain(self):
        m = make_model(2, [(1, 2)], {1}, {2}, {1, 2})
        mat = compartmental_matrix(m, MODE_DIAG)
        coeffs = char_poly_coeffs(mat.entries, mat.table, [(1, 2)])[2:]
        assert coeffs == [mono(mat.table, Param("edge", 2, 1))]

    def test_principal_minor_is_char_poly_of_submatrix(self):
        m = make_model(3, [], {1}, {1}, {1, 2, 3})
        mat = compartmental_matrix(m, MODE_DIAG)
        got = char_poly_coeffs(mat.entries, mat.table, [(1, 1)])[3:]
        sub = [[mat.entries[r][c] for c in (1, 2)] for r in (1, 2)]
        assert got == char_poly_coeffs(sub, mat.table)


class TestDeterminantOracle:
    """Exact equality with the n!-term permutation expansion."""

    def test_char_and_minors_match_leibniz(self, rng):
        cases = 0
        while cases < 200:
            model = random_model(rng, n_range=(1, 5), full_leaks=rng.random() < 0.5)
            mode = MODE_DIAG if model.leaks == frozenset(model.vertices) else MODE_EXPLICIT
            mat = compartmental_matrix(model, mode)
            cm = char_matrix(mat.entries, mat.table)
            full = leibniz_det(cm, mat.table)
            n = model.n
            # every cofactor from one shared expansion, in a random order
            positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            rng.shuffle(positions)
            coeffs = char_poly_coeffs(mat.entries, mat.table, positions)
            assert coeffs[:n] == full.d_coefficients(n)[1:]
            assert len(coeffs) == n + len(positions) * (n - 1)
            for block, (i, j) in enumerate(positions):
                sub = [
                    [cm[r][c] for c in range(n) if c != j - 1]
                    for r in range(n)
                    if r != i - 1
                ]
                direct = leibniz_det(sub, mat.table)
                if (i + j) % 2:
                    direct = -direct
                start = n + block * (n - 1)
                listed = coeffs[start : start + n - 1]
                assert listed == direct.d_coefficients(n - 1)[1:], (model, i, j)
            cases += 1


def _disjoint_cycle_collections(model, k):
    """All collections of vertex-disjoint cycles (self-cycles included)
    covering exactly k edges; yields (sign, param tuple)."""
    cycles = [((v,), (Param.diag(v),), 1) for v in model.vertices]
    from oracles import all_simple_cycles_brute

    for edge_set in sorted(all_simple_cycles_brute(model), key=sorted):
        verts = tuple(sorted({v for e in edge_set for v in e}))
        params = tuple(Param.edge(s, d) for s, d in sorted(edge_set))
        sign = 1 if len(edge_set) % 2 == 1 else -1
        cycles.append((verts, params, sign))

    results = []

    def extend(idx, used, edges_left, sign, params):
        if edges_left == 0:
            results.append((sign, params))
            return
        for t in range(idx, len(cycles)):
            verts, ps, s = cycles[t]
            if len(ps) <= edges_left and not (set(verts) & used):
                extend(t + 1, used | set(verts), edges_left - len(ps), sign * s, params + ps)

    extend(0, set(), k, 1, ())
    return results


class TestCycleExpansion:
    """Coefficient of D^(n-k) equals the signed sum over vertex-disjoint
    cycle collections with k edges."""

    def test_against_collection_enumerator(self, rng):
        for _ in range(200):
            model = random_model(rng, n_range=(1, 5), full_leaks=True, edge_bias=0.3)
            mat = compartmental_matrix(model, MODE_DIAG)
            t = mat.table
            coeffs = char_poly_coeffs(mat.entries, t)
            for k in range(1, model.n + 1):
                expected = SparsePoly.zero(t)
                for sign, params in _disjoint_cycle_collections(model, k):
                    expected = expected + mono(t, *params, coeff=sign)
                if k % 2 == 1:
                    expected = -expected
                assert coeffs[k - 1] == expected, (model, k)


class TestDerivativeIdentity:
    """The signed (i,j) minor is minus the a_ij-partial of the
    characteristic polynomial after making entry (i,j) symbolic."""

    def test_minor_is_partial_of_extended_char_poly(self, rng):
        cases = 0
        while cases < 120:
            model = random_model(rng, n_range=(2, 4), full_leaks=True, edge_bias=0.4)
            n = model.n
            i, j = rng.randint(1, n), rng.randint(1, n)
            if i == j or (j, i) in model.edges:
                continue
            extended = make_model(
                n, tuple(model.edges) + ((j, i),), model.inputs, model.outputs, model.leaks
            )
            table = extended.vartable(MODE_DIAG)
            base = compartmental_matrix(model, MODE_DIAG, table)
            added = Param.edge(j, i)
            tilde = [list(row) for row in base.entries]
            tilde[i - 1][j - 1] = SparsePoly.var(table, added)
            det_tilde = leibniz_det(char_matrix(tilde, table), table)
            cm = char_matrix(base.entries, table)
            sub = [
                [cm[r][c] for c in range(n) if c != j - 1] for r in range(n) if r != i - 1
            ]
            minor = leibniz_det(sub, table)
            if (i + j) % 2:
                minor = -minor
            assert sympy_poly(minor)[0] == -sympy_partial(det_tilde, table.index_of(added))
            cases += 1
