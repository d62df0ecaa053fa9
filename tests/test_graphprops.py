"""Connectivity predicates, distances, and inductive strong connectivity."""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from itertools import combinations, permutations

import networkx as nx
import pytest

from identkit.census import edge_slots
from identkit.graphprops import (
    PreconditionViolated,
    closure,
    dist,
    is_inductively_strongly_connected,
    is_output_connectable,
    is_output_connectable_to_every_output,
    is_strongly_connected,
    is_strongly_input_output_connected,
    output_reachable_set,
    satisfies_almost_isc,
)
from identkit.identcore import classify_identifiability, expected_dimension_test
from identkit.model import MAX_VERTICES, make_model

from conftest import (
    cascade_exchange,
    cycle_with_chord,
    fan_in,
    fan_in_bypass,
    loop_with_tail,
    random_model,
    three_cycle,
)
from oracles import (
    exhaustive_isc,
    floyd_warshall,
    oracle_induced_strongly_connected,
    oracle_strongly_connected,
    sioc_by_definition,
    sioc_via_augmentation,
)


def _nonempty_subsets(n):
    vertices = range(1, n + 1)
    return [set(c) for k in range(1, n + 1) for c in combinations(vertices, k)]


@contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError, instead of hanging, when the block runs longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestStronglyConnected:
    def test_cascade_is_not(self):
        assert not is_strongly_connected(cascade_exchange())

    def test_cycle_is(self):
        assert is_strongly_connected(three_cycle())

    def test_loop_with_tail_is(self):
        m = loop_with_tail()
        assert oracle_strongly_connected(m)  # independent closure oracle
        assert is_strongly_connected(m)

    def test_against_networkx(self, rng):
        for _ in range(300):
            m = random_model(rng)
            g = nx.DiGraph()
            g.add_nodes_from(m.vertices)
            g.add_edges_from(m.edges)
            assert is_strongly_connected(m) == nx.is_strongly_connected(g)


class TestOutputReachable:
    def test_cascade_full(self):
        assert output_reachable_set(cascade_exchange(), 2) == frozenset({1, 2, 3, 4})

    def test_fan_in_bypass_full(self):
        assert output_reachable_set(fan_in_bypass(), 2) == frozenset({1, 2, 3})

    def test_isolated_output(self):
        m = make_model(3, [(1, 3)], {1}, {2}, set())
        assert output_reachable_set(m, 2) == frozenset({2})


class TestOutputConnectable:
    def test_fan_in(self):
        assert is_output_connectable(fan_in())

    def test_disjoint_vertices(self):
        m = make_model(2, [], {1}, {1}, set())
        assert not is_output_connectable(m)

    def test_strongly_connected_implies_both(self):
        m = three_cycle(outputs={2, 3})
        assert is_output_connectable(m)
        assert is_output_connectable_to_every_output(m)


class TestSIOC:
    def test_cascade(self):
        assert is_strongly_input_output_connected(cascade_exchange())

    def test_fan_in_is_not(self):
        assert not is_strongly_input_output_connected(fan_in())

    def test_single_edge(self):
        m = make_model(2, [(1, 2)], {1}, {2}, set())
        assert is_strongly_input_output_connected(m)

    def test_every_small_model_matches_definition(self):
        """Every labeled digraph with n <= 3, with every nonempty In and Out."""
        cases = {True: 0, False: 0}
        for n in range(1, 4):
            slots = edge_slots(n)
            subsets = _nonempty_subsets(n)
            for mask in range(1 << len(slots)):
                edges = [e for k, e in enumerate(slots) if mask >> k & 1]
                for inputs in subsets:
                    for outputs in subsets:
                        m = make_model(n, edges, inputs, outputs)
                        expected = sioc_by_definition(m)
                        assert is_strongly_input_output_connected(m) == expected, m
                        cases[expected] += 1
        assert sum(cases.values()) == 1 + 4 * 9 + 64 * 49
        assert min(cases.values()) > 0

    def test_sampled_models_match_definition(self, rng):
        """n = 4-7, with up to three inputs and three outputs."""
        cases = {True: 0, False: 0}
        for _ in range(1000):
            n = rng.randint(4, 7)
            bias = rng.uniform(0.15, 0.4)
            edges = [e for e in edge_slots(n) if rng.random() < bias]
            inputs = rng.sample(range(1, n + 1), rng.randint(1, 3))
            outputs = rng.sample(range(1, n + 1), rng.randint(1, 3))
            m = make_model(n, edges, inputs, outputs)
            expected = sioc_by_definition(m)
            assert is_strongly_input_output_connected(m) == expected, m
            cases[expected] += 1
        assert min(cases.values()) > 0

    def test_layered_model_is_decided_promptly(self):
        """1 -> 2 with In={1}, Out={2}, and a width-4 layered DAG of 15 layers
        hanging off compartment 1 (62 compartments, 4^15 simple paths from
        the input); its output-reachable part is only {1, 2}."""
        edges, layer = [(1, 2)], [1]
        for k in range(15):
            prev, layer = layer, list(range(3 + 4 * k, 7 + 4 * k))
            edges += [(a, b) for a in prev for b in layer]
        m = make_model(62, edges, {1}, {2}, {1, 2})
        with _time_limit(10):
            assert not is_strongly_input_output_connected(m)
            report = classify_identifiability(m, seed=1)
        assert not report.strongly_input_output_connected

    def test_augmentation_equivalence(self, rng):
        """The definitional check agrees with strong connectivity of the
        graph augmented by output->input edges (single input or output)."""
        cases = 0
        while cases < 250:
            m = random_model(rng)
            if len(m.inputs) != 1 and len(m.outputs) != 1:
                continue
            assert is_strongly_input_output_connected(m) == sioc_via_augmentation(
                m.n, m.edges, m.inputs, m.outputs
            ), m
            cases += 1

    def test_sioc_single_output_implies_output_connectable(self, rng):
        cases = 0
        while cases < 200:
            m = random_model(rng)
            if len(m.outputs) != 1:
                continue
            if is_strongly_input_output_connected(m):
                assert is_output_connectable(m), m
            if is_strongly_connected(m):
                assert is_output_connectable_to_every_output(m), m
            cases += 1

    def test_minimum_edges(self, rng):
        """Strong connectivity needs |V| edges; strong input-output
        connectivity with one input and output needs |V|-1."""
        for _ in range(300):
            m = random_model(rng)
            if m.n == 1:
                continue
            if is_strongly_connected(m):
                assert len(m.edges) >= m.n
            if (
                len(m.inputs) == 1
                and len(m.outputs) == 1
                and is_strongly_input_output_connected(m)
            ):
                assert len(m.edges) >= m.n - 1


class TestDist:
    def test_direct_edge(self):
        assert dist(cascade_exchange(), 1, 2) == 1

    def test_chord_graph(self):
        assert dist(cycle_with_chord(), 1, 2) == 1

    def test_unreachable(self):
        assert dist(cascade_exchange(), 2, 1) == math.inf

    def test_self_distance(self):
        assert dist(cascade_exchange(), 3, 3) == 0

    def test_triangle_inequality_and_edge_characterization(self, rng):
        for _ in range(200):
            m = random_model(rng)
            for i in m.vertices:
                for j in m.vertices:
                    dij = dist(m, i, j)
                    if i != j:
                        assert (dij == 1) == ((i, j) in m.edges)
                    for k in m.vertices:
                        assert dist(m, i, k) <= dij + dist(m, j, k)

    def test_distances_against_floyd_warshall(self, rng):
        for _ in range(200):
            m = random_model(rng, n_range=(1, 7))
            expected = floyd_warshall(m.n, m.edges)
            rows = closure(m.n, m.edges).dist
            for v in m.vertices:
                assert rows[v - 1] == [expected[v, u] for u in m.vertices], m


class TestInductivelyStronglyConnected:
    def test_three_cycle_fails(self):
        ok, order = is_inductively_strongly_connected(three_cycle(), 1)
        assert not ok and order is None

    def test_exchange_chain(self):
        m = make_model(3, [(1, 2), (2, 1), (2, 3), (3, 2)], {1}, {1}, set())
        ok, order = is_inductively_strongly_connected(m, 1)
        assert ok and order == (1, 2, 3)

    def test_cascade_plus_return_edge(self):
        m = make_model(
            4, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)], {1}, {2}, set()
        )
        ok, order = is_inductively_strongly_connected(m, 1)
        assert ok and order == (1, 2, 3, 4)

    def test_witness_ordering_is_valid(self, rng):
        """At every start the verdict matches the search over all orderings,
        and the order adds, each step, the lowest-numbered vertex whose
        prefix induces a strongly connected subgraph."""
        for _ in range(150):
            m = random_model(rng, n_range=(1, 5))
            for start in m.vertices:
                ok, order = is_inductively_strongly_connected(m, start)
                assert ok == exhaustive_isc(m, start), (m, start)
                if not ok:
                    assert order is None
                    continue
                assert order[0] == start and sorted(order) == list(m.vertices), (m, order)
                for k in range(1, m.n):
                    prefix = set(order[:k])
                    addable = [
                        v
                        for v in m.vertices
                        if v not in prefix and oracle_induced_strongly_connected(m, prefix | {v})
                    ]
                    assert order[k] == min(addable), (m, order)

    def test_bad_start(self):
        for start in (0, 4):
            with pytest.raises(PreconditionViolated):
                is_inductively_strongly_connected(three_cycle(), start)


class TestAlmostISC:
    def test_cycle_with_chord(self):
        assert satisfies_almost_isc(cycle_with_chord())

    def test_cascade(self):
        assert satisfies_almost_isc(cascade_exchange())

    def test_single_edge(self):
        m = make_model(2, [(1, 2)], {1}, {2}, {1, 2})
        assert satisfies_almost_isc(m)

    def test_wrong_edge_count_fails(self):
        m = make_model(3, [(1, 2), (2, 3), (3, 2)], {1}, {2}, set())
        # dist = 1 needs 2*3-3 = 3 edges: holds; but return path 2->1 absent
        # and adding 2->1 must make it inductively strongly connected
        assert satisfies_almost_isc(m)
        m2 = make_model(3, [(1, 2), (2, 3)], {1}, {2}, set())
        assert not satisfies_almost_isc(m2)

    def test_return_path_disqualifies(self):
        m = make_model(2, [(1, 2), (2, 1)], {1}, {2}, set())
        assert not satisfies_almost_isc(m)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            satisfies_almost_isc(make_model(2, [(1, 2)], {1, 2}, {2}, set()))
        with pytest.raises(PreconditionViolated):
            satisfies_almost_isc(make_model(2, [(1, 2)], {1}, {1}, set()))

    @pytest.mark.parametrize("n", [24, MAX_VERTICES])
    def test_star_of_exchanges_at_scale(self, n):
        """1 -> 2 and 1 <-> v for v = 3..n: 2n-3 edges, dist(1, 2) = 1, and
        with 2 -> 1 added, every vertex joins {1} in turn."""
        edges = [(1, 2)] + [e for v in range(3, n + 1) for e in ((1, v), (v, 1))]
        m = make_model(n, edges, {1}, {2}, set(range(1, n + 1)))
        with _time_limit(10):
            assert satisfies_almost_isc(m)

    def test_sufficient_condition_exhaustive(self):
        """Every full-leak model with n <= 4, distinct single input and
        output, and n-1 to 2n-3 edges that satisfies the condition reaches
        expected dimension."""
        models = held = 0
        for n in range(2, 5):
            vertices = range(1, n + 1)
            slots = [(u, v) for u in vertices for v in vertices if u != v]
            for size in range(n - 1, 2 * n - 2):
                for edges in combinations(slots, size):
                    for i, j in permutations(vertices, 2):
                        m = make_model(n, edges, {i}, {j}, vertices)
                        models += 1
                        if satisfies_almost_isc(m):
                            held += 1
                            assert expected_dimension_test(m, seed=0).equals_bound, m
        assert (models, held) == (18298, 440)
