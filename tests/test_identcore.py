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
    is_identifiable_path_cycle_model,
    jacobian_rank,
    jacobian_ranks,
    necessary_conditions,
    random_point,
    rank_mod_p,
    self_cycles_identifiable,
)
from identkit.graphprops import is_strongly_connected, is_strongly_input_output_connected
from identkit.ioeq import NoInputReachesOutput, coefficient_map
from identkit.model import MODE_DIAG, MODE_EXPLICIT, compartmental_matrix, load_model, make_model
from identkit.sympoly import SparsePoly, VarTable

from conftest import (
    cascade_exchange,
    dual_io_hub,
    fan_in,
    fan_in_bypass,
    random_model,
    star_prime,
    star_two_exchanges,
)
from oracles import sympy_gradient_mod_p, sympy_rank_mod_p

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
MODEL_FIXTURES = sorted(f for f in os.listdir(FIXTURES) if not f.startswith("construct"))


class TestJacobianRank:
    def test_worked_example_rank_seven(self):
        cm = coefficient_map(cascade_exchange(), MODE_DIAG)
        assert jacobian_rank(cm, seed=0) == 7

    def test_fan_in_bypass_rank_four(self):
        m = fan_in_bypass()
        cm = coefficient_map(m, MODE_DIAG)
        assert jacobian_rank(cm, seed=0) == 4
        assert len(m.edges) + 2 == 5  # strictly below the would-be bound

    def test_single_compartment(self):
        m = make_model(1, [], {1}, {1}, {1})
        assert jacobian_rank(coefficient_map(m, MODE_EXPLICIT), seed=0) == 1
        empty = coefficient_map(m.with_leaks(set()), MODE_EXPLICIT)
        assert empty.polys == ()
        assert jacobian_rank(empty, seed=0) == 0

    def test_stability_across_seeds(self):
        cm = coefficient_map(cascade_exchange(), MODE_DIAG)
        assert {jacobian_rank(cm, seed=s) for s in (10, 20, 30)} == {7}

    def test_seed_picks_the_prime(self, monkeypatch):
        """Seed s evaluates the Jacobian mod PRIMES[s % 3], at one point."""
        primes = []
        real = identcore.jacobian_at

        def recorded(polys, point, p):
            primes.append(p)
            return real(polys, point, p)

        monkeypatch.setattr(identcore, "jacobian_at", recorded)
        cm = coefficient_map(cascade_exchange(), MODE_DIAG)
        for seed in range(6):
            primes.clear()
            assert jacobian_rank(cm, seed=seed) == 7
            assert primes == [PRIMES[seed % 3]]

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_fixtures_agree_at_every_prime(self, name):
        """Seeds 0, 1 and 2 work mod the three primes and give each fixture,
        as shipped and with a leak in every compartment, one verdict and rank."""
        model = load_model(os.path.join(FIXTURES, name))
        for m in (model, model.with_leaks(model.vertices)):
            reports = [classify_identifiability(m, seed=seed) for seed in (0, 1, 2)]
            assert len({(r.verdict, r.jacobian_rank) for r in reports}) == 1, name


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
    """``rank_mod_p`` and ``jacobian_ranks`` against sympy over GF(p)."""

    def test_primes(self):
        assert len(set(PRIMES)) == len(PRIMES)
        for p in PRIMES:
            assert 2**61 < p < 2**62
            assert sympy.isprime(p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_point_spans_the_nonzero_residues(self, p):
        table = VarTable(("x",))
        rng = random.Random(5)
        draws = [v for _ in range(1000) for v in random_point(table, rng, p)]
        assert all(1 <= v < p for v in draws)
        assert max(draws) > p // 2

    def test_random_point_replays_from_its_seed(self):
        table = VarTable(tuple(f"x{i}" for i in range(6)))
        p = PRIMES[0]
        first = random_point(table, random.Random(9), p)
        assert random_point(table, random.Random(9), p) == first
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
        rng = random.Random(11)
        for case in range(12):
            ncols = rng.randint(2, 6)
            table = VarTable(tuple(f"x{i}" for i in range(ncols)))

            def draw(zero):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    exp = tuple(0 if c in zero else rng.randint(0, 2) for c in range(ncols)) + (0,)
                    terms[exp] = rng.randint(-5, 5)
                return SparsePoly(table, terms)

            polys = planted_rows(rng, rng.randint(2, 8), ncols, draw, lambda a, b: a + b)
            key = ("planted", str(case))
            families = subset_families(rng, len(polys))
            for seed in range(3):
                # the engine's one point: mod PRIMES[seed % 3], from the stream (seed, key)
                p = PRIMES[seed % len(PRIMES)]
                point = random_point(table, identcore.derived_rng(seed, *key), p)
                jac = [sympy_gradient_mod_p(poly, point, p) for poly in polys]
                for subsets in families:
                    expected = [sympy_rank_mod_p([jac[r] for r in ids], p) for ids in subsets]
                    assert jacobian_ranks(polys, table, seed, key, subsets) == expected


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
    """A full-leak model in explicit mode is ranked through its diag map, and
    reports the explicit map's own coefficient count and rank."""

    @staticmethod
    def assert_explicit_report(m, seeds=(0, 1, 2)):
        explicit = coefficient_map(m, MODE_EXPLICIT)
        for seed in seeds:
            report = classify_identifiability(m, seed=seed, mode=MODE_EXPLICIT)
            assert report.mode == MODE_EXPLICIT
            assert report.param_count == len(explicit.param_order), m
            assert report.coeff_count == len(explicit), m
            assert report.jacobian_rank == jacobian_rank(explicit, seed=seed), (m, seed)

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

    def test_only_partial_leaks_build_the_explicit_map(self, monkeypatch):
        modes = []
        real = identcore.coefficient_map
        monkeypatch.setattr(identcore, "coefficient_map", lambda m, mode: modes.append(mode) or real(m, mode))
        classify_identifiability(cascade_exchange(), seed=0, mode=MODE_EXPLICIT)
        assert modes == [MODE_DIAG]
        modes.clear()
        classify_identifiability(cascade_exchange().with_leaks({1, 2}), seed=0, mode=MODE_EXPLICIT)
        assert modes == [MODE_EXPLICIT]

    @pytest.mark.parametrize("name", MODEL_FIXTURES)
    def test_diag_value_zero_mod_p(self, monkeypatch, name):
        """Leaks drawn so that one diagonal a_vv = -a_0v - (outflows of v)
        is 0 mod p leave the rank equal to the explicit map's at that point."""
        model = load_model(os.path.join(FIXTURES, name))
        m = model.with_leaks(model.vertices)
        explicit = coefficient_map(m, MODE_EXPLICIT)
        ne = len(m.edges)
        real_point, real_jacobian = identcore.random_point, identcore.jacobian_at
        for v in m.vertices:

            def zero_diagonal(table, rng, p):
                point = list(real_point(table, rng, p))
                outflow = sum(x for param, x in zip(m.edge_params(), point) if param.j == v)
                point[ne + v - 1] = -outflow % p
                return tuple(point)

            values = []

            def recorded(polys, point, p):
                values.append(point)
                return real_jacobian(polys, point, p)

            monkeypatch.setattr(identcore, "random_point", zero_diagonal)
            monkeypatch.setattr(identcore, "jacobian_at", recorded)
            for seed in (0, 1, 2):
                values.clear()
                report = classify_identifiability(m, seed=seed, mode=MODE_EXPLICIT)
                (point,) = values
                assert point[ne + v - 1] == 0
                assert report.jacobian_rank == jacobian_rank(explicit, seed=seed), (name, v, seed)

    def test_diag_point_is_the_explicit_diagonal(self, rng):
        """``diag_point`` keeps the edge rates and values each a_vv as the
        explicit matrix's diagonal entry -a_0v - (outflows of v), mod p."""
        for _ in range(50):
            m = random_model(rng, n_range=(1, 6), full_leaks=True)
            matrix = compartmental_matrix(m, MODE_EXPLICIT)
            p = rng.choice(PRIMES)
            point = random_point(matrix.table, rng, p)
            ne = len(m.edges)
            diagonal = [
                sum(c * point[e.index(1)] for e, c in matrix.entry(v, v).terms.items()) % p
                for v in m.vertices
            ]
            assert identcore.diag_point(m, point, p) == point[:ne] + tuple(diagonal), m

    def test_explicit_of_needs_the_models_diag_map(self):
        m = cascade_exchange()
        with pytest.raises(HypothesesNotMet):
            jacobian_rank(coefficient_map(m, MODE_EXPLICIT), explicit_of=m)
        with pytest.raises(HypothesesNotMet):
            jacobian_rank(coefficient_map(m, MODE_DIAG), explicit_of=m.with_leaks({1, 2}))


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
                r_diag = jacobian_rank(coefficient_map(m, MODE_DIAG), seed=17)
                r_expl = jacobian_rank(coefficient_map(m, MODE_EXPLICIT), seed=17)
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
            rank = jacobian_rank(coefficient_map(m, MODE_DIAG), seed=23)
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
