"""Rank decisions, verdicts, expected dimension, and structural screens."""

from __future__ import annotations

import os
import random
from itertools import combinations, permutations, product

import pytest
import sympy

import identkit.graphprops as graphprops
import identkit.identcore as identcore
from identkit.identcore import (
    PRIMES,
    HypothesesNotMet,
    classify_identifiability,
    edge_formula_check,
    expected_dimension_test,
    graph_ranks,
    is_identifiable_path_cycle_model,
    jacobian_rank,
    necessary_conditions,
    point_matrix,
    point_rank,
    random_point,
    rank_mod_p,
    self_cycles_identifiable,
)
from identkit.graphprops import closure, is_strongly_connected, is_strongly_input_output_connected
from identkit.ioeq import NoInputReachesOutput, coefficient_map
from identkit.model import (
    MODE_DIAG,
    MODE_EXPLICIT,
    ModeRequiresFullLeaks,
    compartmental_matrix,
    load_model,
    make_model,
)
from identkit.sympoly import char_poly_coeffs

from conftest import (
    cascade_exchange,
    dual_io_hub,
    fan_in,
    fan_in_bypass,
    random_model,
    star_prime,
    star_two_exchanges,
)
from oracles import expanded_rank, jacobian_at, sympy_gradient_mod_p, sympy_rank_mod_p

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
MODEL_FIXTURES = sorted(f for f in os.listdir(FIXTURES) if not f.startswith("construct"))


class TestJacobianRank:
    def test_worked_example_rank_seven(self):
        cm = coefficient_map(cascade_exchange(), MODE_DIAG)
        assert expanded_rank(cm, seed=0) == 7
        assert jacobian_rank(cascade_exchange(), MODE_DIAG, seed=0) == (7, 7)

    def test_fan_in_bypass_rank_four(self):
        m = fan_in_bypass()
        cm = coefficient_map(m, MODE_DIAG)
        assert expanded_rank(cm, seed=0) == 4
        assert jacobian_rank(m, MODE_DIAG, seed=0) == (4, len(cm))
        assert len(m.edges) + 2 == 5  # strictly below the would-be bound

    def test_single_compartment(self):
        m = make_model(1, [], {1}, {1}, {1})
        assert expanded_rank(coefficient_map(m, MODE_EXPLICIT), seed=0) == 1
        assert jacobian_rank(m, MODE_EXPLICIT, seed=0) == (1, 1)
        empty = coefficient_map(m.with_leaks(set()), MODE_EXPLICIT)
        assert empty.polys == ()
        assert expanded_rank(empty, seed=0) == 0
        assert jacobian_rank(m.with_leaks(set()), MODE_EXPLICIT, seed=0) == (0, 0)

    def test_stability_across_seeds(self):
        cm = coefficient_map(cascade_exchange(), MODE_DIAG)
        assert {expanded_rank(cm, seed=s) for s in (10, 20, 30)} == {7}
        assert {jacobian_rank(cascade_exchange(), MODE_DIAG, seed=s) for s in (10, 20, 30)} == {(7, 7)}

    def test_seed_picks_the_prime(self, monkeypatch):
        """Seed s ranks the Jacobian mod PRIMES[s % 3], at one point."""
        primes = []
        real = identcore.rank_mod_p

        def recorded(rows, p, subsets):
            primes.append(p)
            return real(rows, p, subsets)

        monkeypatch.setattr(identcore, "rank_mod_p", recorded)
        for seed in range(6):
            primes.clear()
            assert jacobian_rank(cascade_exchange(), MODE_DIAG, seed=seed) == (7, 7)
            assert primes == [PRIMES[seed % 3]]

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_fixtures_agree_at_every_prime(self, name):
        """Seeds 0, 1 and 2 work mod the three primes and give each fixture,
        as shipped and with a leak in every compartment, one verdict and rank."""
        model = load_model(os.path.join(FIXTURES, name))
        for m in (model, model.with_leaks(model.vertices)):
            reports = [classify_identifiability(m, seed=seed) for seed in (0, 1, 2)]
            assert len({(r.verdict, r.jacobian_rank) for r in reports}) == 1, name


class ScriptedRandom:
    """A stand-in for ``random.Random`` whose ``randrange`` returns scripted
    values in order."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, start, stop):
        value = self.values.pop(0)
        assert start <= value < stop
        return value


class TestEngineCrossCheck:
    """The engine's rank and coefficient count equal the expanded route's,
    ``oracles.expanded_rank`` and ``len(coefficient_map(...))``, at the same
    point."""

    @staticmethod
    def assert_agree(m, seeds=(0, 1, 2)) -> list[str]:
        """Checks every mode of ``m``; returns the modes checked."""
        modes = [MODE_EXPLICIT, MODE_DIAG] if m.leaks == frozenset(m.vertices) else [MODE_EXPLICIT]
        for mode in modes:
            cmap = coefficient_map(m, mode)
            for seed in seeds:
                assert jacobian_rank(m, mode, seed) == (expanded_rank(cmap, seed), len(cmap)), (m, mode, seed)
        return modes

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_fixtures(self, name):
        model = load_model(os.path.join(FIXTURES, name))
        self.assert_agree(model)
        self.assert_agree(model.with_leaks(model.vertices))

    def test_random_models(self):
        rng = random.Random(2811)
        # full leaks rank in diag and explicit mode, partial leaks in explicit
        seen = dict.fromkeys(("full leaks", "partial leaks", "two inputs", "two outputs"), 0)
        models = 0
        while models < 320:
            m = random_model(rng, n_range=(1, 5), full_leaks=rng.random() < 0.5)
            try:
                modes = self.assert_agree(m)
            except NoInputReachesOutput:
                continue
            models += 1
            seen["full leaks" if len(modes) == 2 else "partial leaks"] += 1
            seen["two inputs"] += len(m.inputs) == 2
            seen["two outputs"] += len(m.outputs) == 2
        assert min(seen.values()) >= 20, seen

    def test_scripted_lambda_stream_reaches_both_redraws(self):
        """The values l are redrawn at a root of det(lI - A_H) and at a
        repeat; the rows at the values kept rank as the expanded map."""
        m = make_model(3, [(3, 2), (2, 1)], {3}, {1}, {1, 2, 3})
        # diag parameters a12, a23, a11, a22, a33: A is triangular, so
        # det(lI - A) = (l - 11)(l - 13)(l - 17)
        point = (5, 7, 11, 13, 17)
        stream = ScriptedRandom([13, 19, 19, 23])  # a root, a value, its repeat, a value
        p = PRIMES[0]
        cmap = coefficient_map(m, MODE_DIAG)
        (rank,) = rank_mod_p(jacobian_at(cmap.polys, point, p), p, [range(len(cmap))])
        assert point_rank(m, MODE_DIAG, point, stream, p) == (rank, len(cmap))
        assert stream.values == []  # two values kept of four drawn


class TestPolynomialTime:
    """Ranks without expansion: the 32-compartment catenary (bidirected
    path) and mammillary (star of exchanges) models, In = Out = {1}, are
    expected-dimension with every leak and locally identifiable with the
    leak {1} alone (leak removal).  Expanding their 32 x 32 determinants
    over vertex subsets is out of reach."""

    @staticmethod
    def catenary(n, leaks):
        return make_model(n, [e for v in range(1, n) for e in ((v, v + 1), (v + 1, v))], {1}, {1}, leaks)

    @staticmethod
    def mammillary(n, leaks):
        return make_model(n, [e for v in range(2, n + 1) for e in ((1, v), (v, 1))], {1}, {1}, leaks)

    @pytest.mark.parametrize("shape", ["catenary", "mammillary"])
    def test_32_compartments(self, shape):
        n = 32
        build = getattr(self, shape)
        full = classify_identifiability(build(n, range(1, n + 1)), seed=0)
        assert full.verdict == "expected-dimension"
        assert full.jacobian_rank == full.expected_dimension_bound == 2 * n - 1
        one = classify_identifiability(build(n, {1}), seed=0)
        assert one.verdict == "locally-identifiable"
        assert one.jacobian_rank == one.param_count == 2 * n - 1


def planted_rows(rng: random.Random, nrows: int, ncols: int, draw, add) -> list:
    """Rows from ``draw`` with planted deficits: zero columns, duplicates of
    earlier rows and sums (by ``add``) of two earlier rows."""
    zero = set(rng.sample(range(ncols), rng.randint(0, min(2, ncols))))
    rows = []
    for _ in range(nrows):
        kind = rng.choice(("free", "free", "duplicate", "sum")) if len(rows) > 1 else "free"
        if kind == "duplicate":
            rows.append(rng.choice(rows))
        elif kind == "sum":
            a, b = rng.sample(rows, 2)
            rows.append(add(a, b))
        else:
            rows.append(draw(zero))
    return rows


def subset_families(rng: random.Random, nrows: int) -> list[list[list[int]]]:
    """Row-id subsets that share a prefix, that share nothing, and a single one."""
    ids = list(range(nrows))
    prefix = ids[: rng.randint(1, nrows // 2)]
    rest = ids[len(prefix) :]
    shared = [prefix + sorted(rng.sample(rest, rng.randint(0, len(rest)))) for _ in range(rng.randint(2, 5))]
    rng.shuffle(ids)
    cut = sorted(rng.sample(range(1, nrows), rng.randint(1, min(3, nrows - 1))))
    disjoint = [ids[a:b] for a, b in zip([0] + cut, cut + [nrows])]
    single = [sorted(rng.sample(range(nrows), rng.randint(1, nrows)))]
    return [shared, disjoint, single]


class TestRankEngine:
    """``rank_mod_p`` and ``graph_ranks`` against sympy over GF(p)."""

    def test_primes(self):
        assert len(set(PRIMES)) == len(PRIMES)
        for p in PRIMES:
            assert 2**61 < p < 2**62
            assert sympy.isprime(p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_point_spans_the_nonzero_residues(self, p):
        rng = random.Random(5)
        draws = [v for _ in range(1000) for v in random_point(1, rng, p)]
        assert all(1 <= v < p for v in draws)
        assert max(draws) > p // 2

    def test_random_point_replays_from_its_seed(self):
        p = PRIMES[0]
        first = random_point(6, random.Random(9), p)
        assert random_point(6, random.Random(9), p) == first
        assert len(first) == 6

    def test_rank_mod_p_matches_oracle(self):
        rng = random.Random(7)
        for case in range(60):
            p = PRIMES[case % len(PRIMES)]
            nrows, ncols = rng.randint(2, 10), rng.randint(1, 8)
            # small entries make many accidental deficits
            low, high = (-3, 4) if case % 2 == 0 else (-p, 2 * p)

            def draw(zero):
                return [0 if c in zero else rng.randrange(low, high) for c in range(ncols)]

            def add(a, b):
                return [x + y for x, y in zip(a, b)]

            rows = planted_rows(rng, nrows, ncols, draw, add)
            for subsets in subset_families(rng, nrows):
                expected = [sympy_rank_mod_p([rows[r] for r in ids], p) for ids in subsets]
                assert rank_mod_p(rows, p, subsets) == expected, (rows, subsets)

    def test_rank_mod_p_edge_cases(self):
        p = PRIMES[0]
        assert rank_mod_p([], p, []) == []
        assert rank_mod_p([[1, 2]], p, [[], [0]]) == [0, 1]
        assert rank_mod_p([[p, 2 * p], [1, 1]], p, [[0], [0, 1]]) == [0, 1]

    def test_jacobian_ranks_match_oracle(self):
        """``graph_ranks``, the census's engine, against sympy ranks of the
        untrimmed expanded Jacobian at the same point: each cofactor set
        ranks the n characteristic rows with every cofactor coefficient's row
        of its positions, which include (i, i) and unreachable pairs."""
        rng = random.Random(11)
        for case in range(40):
            n = rng.randint(2, 5)
            slots = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            edges = sorted(rng.sample(slots, rng.randint(0, len(slots))))
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            positions = rng.sample(cells, rng.randint(2, min(4, len(cells))))
            sets = [rng.sample(positions, 2)]  # at least one two-block set
            sets += [rng.sample(positions, rng.randint(1, len(positions))) for _ in range(rng.randint(0, 3))]
            matrix = compartmental_matrix(make_model(n, edges, {1}, {1}, range(1, n + 1)), MODE_DIAG)
            polys = char_poly_coeffs(matrix.entries, matrix.table, positions)
            rows_of = {pos: range(n + (n - 1) * k, n + (n - 1) * (k + 1)) for k, pos in enumerate(positions)}
            key = ("planted", str(case))
            dist = closure(n, edges).dist
            for seed in range(3):
                p = PRIMES[seed % len(PRIMES)]
                point = random_point(len(matrix.table.params), identcore.derived_rng(seed, *key), p)
                jac = [sympy_gradient_mod_p(poly, point, p) for poly in polys]
                expected = [
                    sympy_rank_mod_p(jac[:n] + [jac[r] for pos in cofactors for r in rows_of[pos]], p)
                    for cofactors in sets
                ]
                assert graph_ranks(n, edges, seed, key, dist, sets) == expected, (edges, sets)


class TestClassify:
    def test_leaks_on_io_compartments_identifiable(self):
        m = cascade_exchange().with_leaks({1, 2})
        report = classify_identifiability(m, seed=0)
        assert report.verdict == "locally-identifiable"
        assert report.jacobian_rank == report.param_count == 7

    def test_leak_placement_classification(self):
        expected_identifiable = [{2, 4}, {2, 3}, {1, 2}]
        expected_unidentifiable = [{3, 4}, {1, 4}, {1, 3}]
        for leaks in expected_identifiable:
            rep = classify_identifiability(star_two_exchanges(leaks), seed=0)
            assert rep.verdict == "locally-identifiable", leaks
        for leaks in expected_unidentifiable:
            rep = classify_identifiability(star_two_exchanges(leaks), seed=0)
            assert rep.verdict == "unidentifiable", leaks

    def test_leak_placement_second_graph(self):
        expected_identifiable = [{3, 4}, {2, 3}, {1, 4}, {1, 2}]
        expected_unidentifiable = [{2, 4}, {1, 3}]
        for leaks in expected_identifiable:
            assert classify_identifiability(star_prime(leaks), seed=0).verdict == "locally-identifiable"
        for leaks in expected_unidentifiable:
            assert classify_identifiability(star_prime(leaks), seed=0).verdict == "unidentifiable"

    def test_full_leak_verdict_is_expected_dimension(self):
        rep = classify_identifiability(cascade_exchange(), seed=0)
        assert rep.verdict == "expected-dimension"
        assert rep.jacobian_rank == 7 and rep.expected_dimension_bound == 7

    def test_full_leak_below_bound(self):
        rep = classify_identifiability(fan_in_bypass(), seed=0)
        assert rep.verdict == "below-expected-dimension"
        assert rep.jacobian_rank == 4 and rep.expected_dimension_bound == 5

    def test_full_leak_multi_io_with_minimal_equations(self):
        from conftest import dual_io_hub, dual_io_square

        # both are strongly connected with leaks, so rank verdicts are sound
        hub = classify_identifiability(dual_io_hub(), seed=0)
        assert hub.verdict == "locally-identifiable"  # rank 10 = |E|+|V|
        assert not hub.minimality_warning
        square = classify_identifiability(dual_io_square(), seed=0)
        assert square.verdict == "unidentifiable"
        assert square.jacobian_rank == 11 and square.param_count == 12

    def test_non_minimal_multi_output_gets_no_rank_verdict(self):
        m = make_model(3, [(1, 2), (1, 3)], {1}, {2, 3}, {1, 2, 3})
        rep = classify_identifiability(m, seed=0)
        assert rep.minimality_warning and rep.verdict == "not-applicable"

    def test_one_closure_per_analysis(self, monkeypatch):
        """Every graph predicate of one analysis (bound tier, screens,
        coefficient map and flags) reads the model's one closure."""
        real, calls = graphprops.closure, []
        monkeypatch.setattr(graphprops, "closure", lambda *args: calls.append(1) or real(*args))
        models = [
            cascade_exchange(),  # path-cycle tier
            cascade_exchange().with_leaks({1, 2}),  # path-length screen
            make_model(3, [(1, 2), (2, 3), (3, 1), (2, 1)], {1}, {1}, {1}),  # exchange screen
            fan_in(),  # output-connectable tier
            dual_io_hub(),  # two outputs: the minimality check
        ]
        for m in models:
            calls.clear()
            classify_identifiability(m, seed=0)
            assert len(calls) == 1, m

    def test_report_serialization(self):
        doc = classify_identifiability(cascade_exchange(), seed=3).to_dict()
        assert doc["verdict"] == "expected-dimension"
        assert doc["seed"] == 3 and doc["model"]["n"] == 4
        assert set(doc["necessary_conditions"]) == {
            "leak-count",
            "exchange",
            "direct-edge",
            "path-length",
        }


class TestFullLeakExplicitRoute:
    """A full-leak model in explicit mode reports the explicit map's own
    coefficient count and rank, from the explicit parameters' columns."""

    @staticmethod
    def assert_explicit_report(m, seeds=(0, 1, 2)):
        explicit = coefficient_map(m, MODE_EXPLICIT)
        for seed in seeds:
            report = classify_identifiability(m, seed=seed, mode=MODE_EXPLICIT)
            assert report.mode == MODE_EXPLICIT
            assert report.param_count == len(explicit.param_order), m
            assert report.coeff_count == len(explicit), m
            assert report.jacobian_rank == expanded_rank(explicit, seed=seed), (m, seed)

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_fixtures_with_all_leaks(self, name):
        model = load_model(os.path.join(FIXTURES, name))
        self.assert_explicit_report(model.with_leaks(model.vertices))

    def test_random_full_leak_models(self, rng):
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 5), full_leaks=True)
            try:
                coefficient_map(m, MODE_DIAG)
            except NoInputReachesOutput:
                continue
            self.assert_explicit_report(m)
            cases += 1

    def test_no_analysis_expands_a_determinant(self, monkeypatch):
        """No analysis, in any mode and with any leak set, builds a
        coefficient map or expands a characteristic determinant."""
        import identkit.ioeq as ioeq
        import identkit.sympoly as sympoly

        def refuse(*args, **kwargs):
            raise AssertionError("the rank path expanded a polynomial")

        for module, name in ((ioeq, "coefficient_map"), (ioeq, "char_poly_coeffs"), (sympoly, "char_poly_coeffs")):
            monkeypatch.setattr(module, name, refuse)
        m = cascade_exchange()
        for model, mode in ((m, MODE_DIAG), (m, MODE_EXPLICIT), (m.with_leaks({1, 2}), MODE_EXPLICIT)):
            report = classify_identifiability(model, seed=0, mode=mode)
            assert report.jacobian_rank == report.coeff_count == 7

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_diag_value_zero_mod_p(self, name):
        """Leaks drawn so that one diagonal a_vv = -a_0v - (outflows of v)
        is 0 mod p, and diag points with a_vv = 0, leave the rank equal to
        the expanded map's at that point.  (The coefficient count is a
        count of values at a generic point, and is not compared here.)"""
        model = load_model(os.path.join(FIXTURES, name))
        m = model.with_leaks(model.vertices)
        ne = len(m.edges)
        for mode in (MODE_EXPLICIT, MODE_DIAG):
            cmap = coefficient_map(m, mode)
            for v in m.vertices:
                for seed in (0, 1, 2):
                    p = PRIMES[seed % len(PRIMES)]
                    rng = identcore.derived_rng(seed, name, str(v))
                    point = list(random_point(len(cmap.param_order), rng, p))
                    if mode == MODE_EXPLICIT:
                        outflow = sum(x for param, x in zip(m.edge_params(), point) if param.j == v)
                        point[ne + v - 1] = -outflow % p
                    else:
                        point[ne + v - 1] = 0
                    assert point_matrix(m, mode, point, p)[v - 1][v - 1] == 0
                    (want,) = rank_mod_p(jacobian_at(cmap.polys, point, p), p, [range(len(cmap))])
                    assert point_rank(m, mode, point, rng, p)[0] == want, (name, mode, v, seed)

    def test_diag_point_is_the_explicit_diagonal(self, rng):
        """``point_matrix`` keeps the edge rates and values each a_vv as the
        explicit matrix's diagonal entry -a_0v - (outflows of v), mod p: it
        is the symbolic compartmental matrix at the point."""
        for _ in range(50):
            m = random_model(rng, n_range=(1, 6), full_leaks=rng.random() < 0.5)
            matrix = compartmental_matrix(m, MODE_EXPLICIT)
            p = rng.choice(PRIMES)
            point = random_point(len(matrix.table.params), rng, p)
            valued = [
                [sum(c * point[e.index(1)] for e, c in matrix.entry(u, v).terms.items()) % p for v in m.vertices]
                for u in m.vertices
            ]
            assert point_matrix(m, MODE_EXPLICIT, point, p) == valued, m

    def test_explicit_of_needs_the_models_diag_map(self):
        """Diag mode needs a leak in every compartment, and then it ranks
        the explicit map's rank and count (a unimodular change of
        coordinates)."""
        m = cascade_exchange()
        with pytest.raises(ModeRequiresFullLeaks):
            jacobian_rank(m.with_leaks({1, 2}), MODE_DIAG)
        with pytest.raises(ModeRequiresFullLeaks):
            classify_identifiability(m.with_leaks({1, 2}), mode=MODE_DIAG)
        assert jacobian_rank(m, MODE_DIAG) == jacobian_rank(m, MODE_EXPLICIT) == (7, 7)


class TestExpectedDimension:
    def test_cascade_true(self):
        res = expected_dimension_test(cascade_exchange(), seed=0)
        assert res.equals_bound and res.rank == res.bound == 7
        assert res.tier == "path-cycle"

    def test_fan_in_output_connectable_tier(self):
        res = expected_dimension_test(fan_in({1, 2, 3}), seed=0)
        assert res.equals_bound and res.rank == res.bound == 4
        assert res.tier == "output-connectable"

    def test_fan_in_bypass_false(self):
        res = expected_dimension_test(fan_in_bypass(), seed=0)
        assert not res.equals_bound and res.rank == 4 and res.bound == 5

    def test_requires_full_leaks(self):
        with pytest.raises(HypothesesNotMet):
            expected_dimension_test(cascade_exchange().with_leaks({1, 2}))

    def test_requires_a_tier(self):
        # two outputs, not strongly connected, multiple inputs
        m = make_model(3, [(1, 2), (1, 3)], {1, 2}, {2, 3}, {1, 2, 3})
        with pytest.raises(HypothesesNotMet):
            expected_dimension_test(m)


class TestPathCycleModel:
    def test_cascade_is_path_cycle_model(self):
        ok, basis = is_identifiable_path_cycle_model(cascade_exchange(), seed=0)
        assert ok
        assert set(basis.monomial_strings()) == {
            "a11", "a22", "a33", "a44", "a21", "a32*a23", "a43*a34",
        }

    def test_cycle_with_chord_graph(self):
        from conftest import cycle_with_chord

        ok, _ = is_identifiable_path_cycle_model(cycle_with_chord(), seed=0)
        assert ok

    def test_fan_in_hypotheses_not_met(self):
        with pytest.raises(HypothesesNotMet):
            is_identifiable_path_cycle_model(fan_in({1, 2, 3}), seed=0)


class TestSelfCycles:
    def test_fan_in_certified(self):
        assert self_cycles_identifiable(fan_in({1, 2, 3}), seed=0)

    def test_fan_in_bypass_not_certified(self):
        assert not self_cycles_identifiable(fan_in_bypass(), seed=0)

    def test_cascade_certified(self):
        assert self_cycles_identifiable(cascade_exchange(), seed=0)


class TestNecessaryConditions:
    def test_leak_count_excess(self):
        m = cascade_exchange().with_leaks({1, 2, 3})
        res = necessary_conditions(m)
        assert [s.status for s in res.screens if s.name == "leak-count"] == [
            "certified-unidentifiable"
        ]

    def test_missing_direct_edge_certifies(self):
        # strongly input-output connected, |E| = 2*4-3 = 5, no edge 1->2
        m = make_model(4, [(1, 3), (3, 2), (2, 4), (4, 2), (3, 4)], {1}, {2}, {1, 2})
        assert is_strongly_input_output_connected(m)
        res = necessary_conditions(m)
        by_name = {s.name: s.status for s in res.screens}
        assert by_name["direct-edge"] == "certified-unidentifiable"
        assert by_name["path-length"] == "certified-unidentifiable"
        # the rank analysis agrees
        assert classify_identifiability(m, seed=0).verdict == "unidentifiable"

    def test_identifiable_model_is_inconclusive(self):
        m = cascade_exchange().with_leaks({1, 2})
        res = necessary_conditions(m)
        assert {s.status for s in res.screens} <= {"inconclusive", "skipped"}

    def test_exchange_screen(self):
        # strongly connected, in = out = {1}, 2|V|-2 edges, one leak
        m = make_model(3, [(1, 2), (2, 3), (3, 1), (2, 1)], {1}, {1}, {1})
        by_name = {s.name: s.status for s in necessary_conditions(m).screens}
        assert by_name["exchange"] == "inconclusive"  # 1<->2 is an exchange
        # n = 4 allows 2|V|-2 = 6 edges with no reversed pair
        m2 = make_model(
            4, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (3, 4)], {1}, {1}, {1}
        )
        assert is_strongly_connected(m2)
        by_name2 = {s.name: s.status for s in necessary_conditions(m2).screens}
        assert by_name2["exchange"] == "certified-unidentifiable"
        assert classify_identifiability(m2, seed=0).verdict == "unidentifiable"
        # one compartment has 2|V|-2 = 0 edges and no room for an exchange
        m1 = make_model(1, [], {1}, {1}, {1})
        by_name1 = {s.name: s.status for s in necessary_conditions(m1).screens}
        assert by_name1["exchange"] == "skipped"
        assert classify_identifiability(m1, seed=0).verdict == "locally-identifiable"

    def test_path_length_screen(self):
        # |E| = 2*4 - (2+2) = 4 edges, k = 2, dist(1,2) must be <= 2
        m = make_model(4, [(1, 3), (3, 4), (4, 2), (2, 3)], {1}, {2}, {1, 2})
        assert is_strongly_input_output_connected(m)
        by_name = {s.name: s.status for s in necessary_conditions(m).screens}
        assert by_name["path-length"] == "certified-unidentifiable"

    def test_screens_are_the_edge_formula(self):
        """For every labeled digraph with n <= 4 and every i != j with leaks on
        {i, j}: path-length certifies exactly when the full-leak model fails
        the edge formula, and direct-edge, where it applies, agrees."""
        applies = direct = 0
        for n in range(2, 5):
            slots = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            for m in range(len(slots) + 1):
                for edges in combinations(slots, m):
                    for i, j in permutations(range(1, n + 1), 2):
                        model = make_model(n, edges, {i}, {j}, {i, j})
                        status = {s.name: s.status for s in necessary_conditions(model).screens}
                        if status["path-length"] == "skipped":
                            continue
                        applies += 1
                        fails = not edge_formula_check(model.with_leaks(model.vertices))
                        assert (status["path-length"] == "certified-unidentifiable") == fails, model
                        if status["direct-edge"] != "skipped":
                            direct += 1
                            assert status["direct-edge"] == status["path-length"], model
        assert (applies, direct) == (2834, 2360)

    def test_no_certified_screen_on_an_identifiable_model(self):
        """For every model with n <= 3, one input, one output, any edge set
        and any leak set, no screen certifies unidentifiability where the
        rank finds the model locally identifiable."""
        models = 0
        for n in range(1, 4):
            vertices = range(1, n + 1)
            slots = [(u, v) for u in vertices for v in vertices if u != v]
            leak_sets = [c for k in range(n + 1) for c in combinations(vertices, k)]
            for size in range(len(slots) + 1):
                for edges in combinations(slots, size):
                    for i, j, leaks in product(vertices, vertices, leak_sets):
                        model = make_model(n, edges, {i}, {j}, leaks)
                        try:
                            report = classify_identifiability(model, seed=0)
                        except NoInputReachesOutput:
                            continue
                        models += 1
                        if report.verdict == "locally-identifiable":
                            statuses = {s.status for s in report.conditions.screens}
                            assert "certified-unidentifiable" not in statuses, model
        assert models == 3506


class TestEdgeFormula:
    def test_cascade(self):
        assert edge_formula_check(cascade_exchange())

    def test_dense_distinct_io_fails(self):
        m = make_model(
            3, [(1, 2), (2, 1), (2, 3), (3, 2)], {1}, {2}, {1, 2, 3}
        )
        # |E|+2 = 6 > 2*3 - dist(1,2) = 5
        assert not edge_formula_check(m)

    def test_dense_same_io_passes(self):
        m = make_model(3, [(1, 2), (2, 1), (2, 3), (3, 2)], {1}, {1}, {1, 2, 3})
        # |E|+1 = 5 <= 2*3-1 = 5
        assert edge_formula_check(m)

    def test_not_applicable(self):
        m = make_model(2, [(1, 2)], {1}, {2}, {1})
        with pytest.raises(HypothesesNotMet):
            edge_formula_check(m)


class TestRankProperties:
    def test_mode_consistency(self, rng):
        """Full-leak models: explicit-mode and diagonal-generic ranks agree."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 5), full_leaks=True)
            try:
                r_diag = expanded_rank(coefficient_map(m, MODE_DIAG), seed=17)
                r_expl = expanded_rank(coefficient_map(m, MODE_EXPLICIT), seed=17)
            except Exception:
                continue  # models whose outputs are unreachable from inputs
            assert r_diag == r_expl, m
            cases += 1

    def test_rank_bound_never_exceeded(self, rng):
        """Certified tiers never see a rank above |E| + |In u Out|."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 5), full_leaks=True)
            sioc = is_strongly_input_output_connected(m)
            sc = is_strongly_connected(m)
            if not ((sioc and len(m.outputs) == 1) or (sc and len(m.inputs) == 1)):
                continue
            rank = expanded_rank(coefficient_map(m, MODE_DIAG), seed=23)
            assert rank <= len(m.edges) + len(m.in_union_out), m
            cases += 1

    def test_identifiability_biconditional(self, rng):
        """With leaks exactly on input/output compartments, locally
        identifiable is equivalent to the full-leak model reaching expected
        dimension (under the strong connectivity tiers)."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 5))
            sioc = is_strongly_input_output_connected(m)
            sc = is_strongly_connected(m)
            if not ((sioc and len(m.outputs) == 1) or (sc and len(m.inputs) == 1)):
                continue
            restricted = m.with_leaks(m.in_union_out)
            full = m.with_leaks(m.vertices)
            ident = classify_identifiability(restricted, seed=31).verdict == "locally-identifiable"
            expdim = expected_dimension_test(full, seed=31).equals_bound
            assert ident == expdim, m
            cases += 1

    def test_output_connectable_biconditional(self, rng):
        """Same equivalence in the weaker output-connectable single-output
        tier."""
        cases = 0
        while cases < 200:
            m = random_model(rng, n_range=(1, 5))
            if len(m.outputs) != 1:
                continue
            from identkit.graphprops import is_output_connectable

            if not is_output_connectable(m):
                continue
            restricted = m.with_leaks(m.in_union_out)
            full = m.with_leaks(m.vertices)
            ident = classify_identifiability(restricted, seed=37).verdict == "locally-identifiable"
            expdim = expected_dimension_test(full, seed=37).equals_bound
            assert ident == expdim, m
            cases += 1
