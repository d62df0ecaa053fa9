"""Leak surgery, path attachment, and construction-pipeline tests."""

from __future__ import annotations

import pytest

from identkit.graphprops import (
    is_inductively_strongly_connected,
    is_strongly_connected,
    is_strongly_input_output_connected,
)
from identkit.identcore import (
    classify_identifiability,
    expected_dimension_test,
)
from identkit.ioeq import coefficient_map
from identkit.model import MAX_VERTICES, MODE_DIAG, ModelError, VertexOutOfRange, make_model
from identkit.transforms import (
    AlreadyLeak,
    AnchorMissing,
    ConstructionScript,
    KeepNotSubsetOfLeak,
    add_leak,
    attach_path,
    remove_leaks,
    run_construction,
)

from conftest import (
    cascade_exchange,
    fan_in,
    fan_in_bypass,
    loop_with_tail,
    random_model,
    star_two_exchanges,
)
from oracles import expanded_rank


class TestRemoveLeaks:
    def test_keep_io_leaks_is_certified(self):
        new_model, cert = remove_leaks(cascade_exchange(), {1, 2}, seed=0)
        assert new_model.leaks == {1, 2}
        assert cert is not None and "locally identifiable" in cert.claim
        assert classify_identifiability(new_model, seed=0).verdict == "locally-identifiable"

    def test_identity_keep(self):
        m = cascade_exchange()
        new_model, cert = remove_leaks(m, m.leaks, seed=0)
        assert new_model == m and cert is not None

    def test_keep_not_covering_io_gets_no_certificate(self):
        new_model, cert = remove_leaks(star_two_exchanges(), {3, 4}, seed=0)
        assert cert is None
        assert classify_identifiability(new_model, seed=0).verdict == "unidentifiable"

    def test_keep_must_be_subset(self):
        m = cascade_exchange().with_leaks({1, 2})
        with pytest.raises(KeepNotSubsetOfLeak):
            remove_leaks(m, {1, 3})

    def test_no_certificate_when_rank_is_deficient(self):
        new_model, cert = remove_leaks(fan_in_bypass(), {1, 2}, seed=0)
        assert cert is None
        assert classify_identifiability(new_model, seed=0).verdict == "unidentifiable"


class TestAddLeak:
    def test_chain_to_full_leaks_preserves_rank(self):
        m = cascade_exchange().with_leaks({1, 2})
        m3, c3 = add_leak(m, 3, seed=0)
        assert c3 is not None
        m4, c4 = add_leak(m3, 4, seed=0)
        assert m4.leaks == {1, 2, 3, 4}
        rank = expanded_rank(coefficient_map(m4, MODE_DIAG), seed=0)
        assert rank == 7

    def test_already_leak(self):
        with pytest.raises(AlreadyLeak):
            add_leak(cascade_exchange(), 1)

    def test_output_connectable_variant(self):
        m = fan_in({1, 2})
        new_model, cert = add_leak(m, 3, seed=0)
        assert cert is not None
        rank = expanded_rank(coefficient_map(new_model, MODE_DIAG), seed=0)
        assert rank == 4


class TestAttachPath:
    def test_lone_vertex_to_triangle(self):
        seed_model = make_model(1, [], {1}, {1}, {1})
        tri, _ = attach_path(seed_model, 1, 1, 2)
        assert tri.n == 3
        assert tri.edges == ((1, 2), (2, 3), (3, 1))
        assert tri.leaks == {1, 2, 3}

    def test_triangle_to_loop_with_tail(self):
        seed_model = make_model(1, [], {1}, {1}, {1})
        tri, _ = attach_path(seed_model, 1, 1, 2)
        grown, _ = attach_path(tri, 2, 3, 2)
        assert grown == loop_with_tail()

    def test_single_vertex_attachment(self):
        m = make_model(2, [(1, 2), (2, 1)], {1}, {1}, {1, 2})
        grown, cert = attach_path(m, 1, 2, 1)
        assert grown.edges == ((1, 2), (1, 3), (2, 1), (3, 2))
        assert cert is not None

    def test_no_certificate_outside_the_cycle_context(self):
        m = make_model(2, [(1, 2), (2, 1)], {1}, {2}, {1, 2})
        grown, cert = attach_path(m, 1, 2, 1)
        assert grown.n == 3 and cert is None

    def test_anchor_missing(self):
        with pytest.raises(AnchorMissing):
            attach_path(make_model(1, [], {1}, {1}, {1}), 1, 2, 1)

    def test_path_beyond_the_vertex_cap_is_refused_at_once(self):
        lone = make_model(1, [], {1}, {1}, {1})
        for s in (100_000_000, MAX_VERTICES):
            with pytest.raises(VertexOutOfRange):
                attach_path(lone, 1, 1, s)
        assert attach_path(lone, 1, 1, MAX_VERTICES - 1)[0].n == MAX_VERTICES


class TestConstruction:
    def test_loop_with_tail_script(self):
        script = ConstructionScript(steps=((1, 1, 2), (2, 3, 2)), final_leak=5)
        model, certs = run_construction(script, seed=0)
        assert model.edges == loop_with_tail().edges
        assert model.leaks == {5}
        assert classify_identifiability(model, seed=1).verdict == "locally-identifiable"
        assert len(certs) == 3  # one per step plus the final single-leak claim
        # the grown graph is not inductively strongly connected, so the
        # certificate genuinely goes beyond the inductive sufficient condition
        ok, _ = is_inductively_strongly_connected(loop_with_tail(), 1)
        assert not ok

    def test_two_compartment_exchange(self):
        script = ConstructionScript(steps=((1, 1, 1),), final_leak=1)
        model, _ = run_construction(script, seed=0)
        assert model.edges == ((1, 2), (2, 1)) and model.leaks == {1}
        assert classify_identifiability(model, seed=0).verdict == "locally-identifiable"

    def test_four_cycle_single_leak(self):
        script = ConstructionScript(steps=((1, 1, 3),), final_leak=2)
        model, _ = run_construction(script, seed=0)
        assert model.n == 4 and model.leaks == {2}
        assert classify_identifiability(model, seed=0).verdict == "locally-identifiable"

    def test_script_round_trip(self):
        script = ConstructionScript(steps=((1, 1, 2), (2, 3, 2)), final_leak=5)
        assert ConstructionScript.from_dict(script.to_dict()) == script

    @pytest.mark.parametrize(
        "doc",
        [
            {"steps": [[1, 1, 2.0]], "final_leak": 1},
            {"steps": [["1", 1, 2]], "final_leak": 1},
            {"steps": [[1, True, 2]], "final_leak": 1},
            {"steps": [(1, 1, 2)], "final_leak": 1},
            {"steps": "112", "final_leak": 1},
            {"steps": [[1, 1, 2]], "final_leak": 1.5},
            {"steps": [[1, 1, 2]], "final_leak": "1"},
            {"steps": [[1, 1, 2]], "final_leak": False},
        ],
        ids=repr,
    )
    def test_script_accepts_only_json_integers_and_lists(self, doc):
        with pytest.raises(ModelError, match="integer"):
            ConstructionScript.from_dict(doc)

    def test_randomized_scripts_build_identifiable_models(self, rng):
        for _ in range(15):
            model = make_model(1, [], {1}, {1}, {1})
            steps = []
            while model.n < rng.randint(3, 8):
                k = rng.randint(1, model.n)
                l = rng.randint(1, model.n)
                s = rng.randint(1, min(3, 8 - model.n) if model.n < 8 else 1)
                steps.append((k, l, s))
                model, _ = attach_path(model, k, l, s)
            final_leak = rng.randint(1, model.n)
            script = ConstructionScript(steps=tuple(steps), final_leak=final_leak)
            built, certs = run_construction(script, seed=7)
            assert built.n == model.n
            report = classify_identifiability(built, seed=11)
            assert report.verdict == "locally-identifiable", script


class TestRankPreservationProperties:
    def test_leak_removal_preserves_rank(self, rng):
        """Full-leak models at expected dimension keep rank |E|+|In u Out|
        for any leak set containing the input/output compartments."""
        cases = 0
        while cases < 100:
            m = random_model(rng, n_range=(1, 5), full_leaks=True)
            sioc = is_strongly_input_output_connected(m)
            sc = is_strongly_connected(m)
            if not ((sioc and len(m.outputs) == 1) or (sc and len(m.inputs) == 1)):
                continue
            if not expected_dimension_test(m, seed=41).equals_bound:
                continue
            bound = len(m.edges) + len(m.in_union_out)
            extra = [v for v in m.vertices if v not in m.in_union_out]
            rng.shuffle(extra)
            keep = set(m.in_union_out) | set(extra[: rng.randint(0, len(extra))])
            restricted, cert = remove_leaks(m, keep, seed=41)
            assert cert is not None
            rank = expanded_rank(coefficient_map(restricted, "explicit"), seed=43)
            assert rank == bound, (m, keep)
            cases += 1

    def test_leak_addition_chain_preserves_rank(self, rng):
        """From |L| = |In u Out| at full rank, adding leaks up to V keeps
        rank |E|+|In u Out|."""
        cases = 0
        while cases < 100:
            m = random_model(rng, n_range=(1, 5))
            sioc = is_strongly_input_output_connected(m)
            sc = is_strongly_connected(m)
            if not ((sioc and len(m.outputs) == 1) or (sc and len(m.inputs) == 1)):
                continue
            base = m.with_leaks(m.in_union_out)
            bound = len(m.edges) + len(m.in_union_out)
            if expanded_rank(coefficient_map(base, "explicit"), seed=47) != bound:
                continue
            current = base
            first = True
            for v in sorted(set(m.vertices) - current.leaks):
                current, cert = add_leak(current, v, seed=47)
                # the certificate's hypothesis checklist requires exactly
                # |In u Out| leaks, so only the first addition certifies
                assert (cert is not None) == first
                first = False
                rank = expanded_rank(coefficient_map(current, "explicit"), seed=49)
                assert rank == bound, (m, v)
            cases += 1

    def test_construction_prefixes_stay_at_expected_dimension(self, rng):
        model = make_model(1, [], {1}, {1}, {1})
        for _ in range(8):
            k = rng.randint(1, model.n)
            l = rng.randint(1, model.n)
            model, cert = attach_path(model, k, l, rng.randint(1, 2))
            assert cert is not None
            assert expected_dimension_test(model, seed=53).equals_bound

    def test_graph_certificate_positives_reach_expected_dimension(self, rng):
        """Random graphs passing the graph-only sufficient condition are
        identifiable path/cycle models, and restricting the leaks to the
        input/output pair stays locally identifiable."""
        from identkit.graphprops import satisfies_almost_isc
        from identkit.identcore import is_identifiable_path_cycle_model

        found = 0
        attempts = 0
        while found < 30 and attempts < 40000:
            attempts += 1
            m = random_model(rng, n_range=(2, 5), full_leaks=True, edge_bias=0.42)
            if len(m.inputs) != 1 or len(m.outputs) != 1 or m.inputs == m.outputs:
                continue
            if not satisfies_almost_isc(m):
                continue
            ok, _ = is_identifiable_path_cycle_model(m, seed=61)
            assert ok, m
            restricted, cert = remove_leaks(m, m.in_union_out, seed=61)
            assert cert is not None
            assert (
                classify_identifiability(restricted, seed=67).verdict
                == "locally-identifiable"
            ), m
            found += 1
        assert found == 30, f"only {found} certificate-positive graphs in {attempts} attempts"

    def test_below_bound_blocks_every_two_leak_placement(self):
        """When the full-leak rank misses the bound, every |In u Out|-sized
        leak placement is unidentifiable."""
        from itertools import combinations

        m = fan_in_bypass()
        assert not expected_dimension_test(m, seed=0).equals_bound
        for leaks in combinations(m.vertices, 2):
            restricted = m.with_leaks(leaks)
            assert (
                classify_identifiability(restricted, seed=59).verdict == "unidentifiable"
            ), leaks
