"""Acceptance gate: reference census rows, regression examples, property
suites, and seed stability.

Each criterion prints one PASS/FAIL line (run with ``-s`` or check the
captured output).  The census criteria compare against the reference table
this project reproduces; when a cell disagrees, a discrepancy report with
per-seed counts and member graphs is written to a fresh temporary directory,
named in the failure message, instead of silently weakening the comparison.
The committed ``discrepancy_*.json`` files next to this module are earlier
such reports, kept as evidence.

A published cell that an exact computation has proven wrong is listed in
``ERRATA``; its ``REFERENCE_ROWS`` entry keeps the published number.  Such a
cell is checked against the exact oracle from ``oracles.py`` instead: the
oracle must prove more members than the table publishes, and the census count
must equal the oracle's count.  Further tests match the census members of the
(4,5) erratum cell with the oracle's graph by graph, and check the oracle
against the published cells of its column that it does not dispute.  Every
small-tier row of the census, which classifies one graph per isomorphism
class, also equals a graph-by-graph count over all labeled digraphs.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from contextlib import contextmanager
from typing import Callable, NamedTuple

import pytest

from identkit.census import CELLS, census_row
from identkit.identcore import classify_identifiability
from identkit.ioeq import coefficient_map
from identkit.model import MODE_DIAG
from identkit.transforms import ConstructionScript, run_construction

from conftest import (
    cascade_exchange,
    cycle_with_chord,
    dual_io_hub,
    dual_io_square,
    fan_in,
    fan_in_bypass,
    loop_with_tail,
    star_prime,
    star_two_exchanges,
)
from oracles import cell_members, discrepancy_report, expanded_rank, expdim_in1_out1_members, labeled_census

SLOW_ENABLED = os.environ.get("IDENTKIT_RUN_SLOW_CENSUS") == "1"

# Reference table: (n, m) -> (total, sc, e11, e123, s12, e12, s132, e132),
# None marking NA cells.
REFERENCE_ROWS = {
    (3, 2): (15, None, None, None, 1, 1, 3, 3),
    (3, 3): (20, 2, 2, 2, 7, 4, 10, 8),
    (3, 4): (15, 9, 7, 3, 11, None, 12, 4),
    (4, 3): (220, None, None, None, 2, 2, 7, 7),
    (4, 4): (495, 6, 6, 6, 37, 25, 72, 59),
    (4, 5): (792, 84, 54, 62, 193, 70, 267, 167),
    (4, 6): (924, 316, 166, 118, 445, None, 518, 184),
    (4, 7): (792, 492, None, 86, 565, None, 603, 96),
}

REFERENCE_ROWS_N5 = {
    (5, 4): (4845, None, None, None, 6, 6, 24, 24),
    (5, 5): (15504, 24, 24, 24, 222, 162, 518, 432),
    (5, 6): (38760, 720, 576, 600, 2470, 1288, 4130, 1110),
    (5, 7): (77520, 6440, 4052, 4030, 13004, 3154, 17708, 1552),
    (5, 8): (125970, 26875, 9565, 10336, 40126, None, 48277, 17113),
    (5, 9): (167960, 65280, None, 15984, 82159, None, 91658, 20272),
    (5, 10): (184756, 105566, None, 9841, 120202, None, 128003, 10689),
}

COLUMNS = (
    "total",
    "strongly_connected",
    "expdim_in1_out1",
    "expdim_in1_out23",
    "sioc_in1_out2",
    "expdim_in1_out2",
    "sioc_in13_out2",
    "expdim_in13_out2",
)


class Erratum(NamedTuple):
    published: int
    oracle: Callable  # (n, m) -> exact ((index, edges), ...) members of the cell
    reason: str


# Published cells proven wrong, keyed by (n, m, column).
ERRATA = {
    (4, 5, "expdim_in1_out1"): Erratum(
        published=54,
        oracle=expdim_in1_out1_members,
        reason=(
            "the exact oracle proves 66 members (full rank over Q at an integer "
            "point) and 18 non-members (symbolic rank over Q(params) below 6); "
            "the 12 members beyond 54 are the graphs whose two simple cycles "
            "are triangles sharing an edge"
        ),
    ),
}


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _check_row(n, m, reference, seed=42, jobs=1):
    row = census_row(n, m, seed=seed, jobs=jobs)
    got = (row.total,) + tuple(row.cells()[c] for c in COLUMNS[1:])
    mismatches = []
    for k, column in enumerate(COLUMNS):
        erratum = ERRATA.get((n, m, column))
        if erratum is None:
            if reference[k] != got[k]:
                mismatches.append((column, reference[k], got[k]))
            continue
        assert reference[k] == erratum.published, (n, m, column)
        exact = len(erratum.oracle(n, m))
        print(f"erratum ({n},{m}) {column}: published {erratum.published}, exact {exact}, census {got[k]}")
        assert exact > erratum.published, (
            f"({n},{m}) {column}: the oracle no longer proves the published "
            f"{erratum.published} wrong (exact count {exact})"
        )
        assert got[k] == exact, f"({n},{m}) {column}: census {got[k]}, exact {exact}"
    if not mismatches:
        return
    reports = []
    bundle_dir = tempfile.mkdtemp(prefix="identkit-discrepancy-")
    for cell, expected, computed in mismatches:
        report = discrepancy_report(n, m, cell, expected)
        path = os.path.join(bundle_dir, f"discrepancy_{n}_{m}_{cell}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        reports.append(
            f"{cell}: reference {expected}, computed {computed} "
            f"(counts by seed {report['counts_by_seed']}, "
            f"stable={report['stable_across_seeds']}; evidence in {path})"
        )
    raise AssertionError(f"census cell mismatch at ({n},{m}): " + "; ".join(reports))


@pytest.mark.parametrize("n,m", sorted(REFERENCE_ROWS))
def test_criterion_1_census_small_tier(n, m):
    with criterion(f"1 census ({n},{m})"):
        _check_row(n, m, REFERENCE_ROWS[(n, m)])


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n,m", sorted(REFERENCE_ROWS))
def test_orbit_census_matches_labeled_census(n, m, jobs):
    """The census classifies one graph per isomorphism class; graph by graph
    over every labeled digraph, the same counts come out.  The census ranks
    at one point, mod the prime of seed 42, and the labeled oracle at one
    point per seed 42, 43 and 44, so mod all three primes: this also checks
    that one point decides every reference row as three primes do."""
    exact = labeled_census(n, m, seed=42)
    row = census_row(n, m, seed=42, jobs=jobs)
    assert row.cells() == {name: None if exact[name] is None else len(exact[name]) for name in CELLS}


def test_criterion_1_erratum_4_5_members_match_oracle():
    with criterion("1 erratum (4,5) expdim_in1_out1 graph by graph"):
        census = [idx for idx, _ in cell_members(4, 5, "expdim_in1_out1", seed=42)]
        exact = [idx for idx, _ in expdim_in1_out1_members(4, 5)]
        assert census == exact
        assert len(exact) == 66


SLOW_TIER = [
    pytest.mark.slow,
    pytest.mark.skipif(not SLOW_ENABLED, reason="set IDENTKIT_RUN_SLOW_CENSUS=1 to run the n=5 tier"),
]


@pytest.mark.parametrize(
    "n,m,cell,expected",
    [
        (4, 5, "expdim_in1_out1", 54),
        pytest.param(5, 6, "expdim_in13_out2", 1110, marks=SLOW_TIER),
        pytest.param(5, 7, "expdim_in13_out2", 1552, marks=SLOW_TIER),
    ],
)
def test_committed_discrepancy_bundle_is_reproduced(n, m, cell, expected):
    """Each evidence bundle kept next to this module is what
    ``discrepancy_report`` gives today with its default seeds."""
    path = os.path.join(os.path.dirname(__file__), f"discrepancy_{n}_{m}_{cell}.json")
    with open(path, encoding="utf-8") as fh:
        committed = json.load(fh)
    assert discrepancy_report(n, m, cell, expected) == committed


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 4), (4, 6)])
def test_expdim_in1_out1_oracle_matches_published_neighbours(n, m):
    """The oracle reproduces every other non-NA cell of its column."""
    assert len(expdim_in1_out1_members(n, m)) == REFERENCE_ROWS[(n, m)][2]


def test_expdim_in1_out1_oracle_ignores_unlucky_points():
    """At values +-1 many full graphs lose rank at the point; the symbolic
    fallback must restore every one of them."""
    assert expdim_in1_out1_members(4, 5, value_bound=1) == expdim_in1_out1_members(4, 5)


@pytest.mark.slow
@pytest.mark.skipif(not SLOW_ENABLED, reason="set IDENTKIT_RUN_SLOW_CENSUS=1 to run the n=5 tier")
@pytest.mark.parametrize("n,m", sorted(REFERENCE_ROWS_N5))
def test_criterion_2_census_extended_tier(n, m):
    with criterion(f"2 census ({n},{m})"):
        _check_row(n, m, REFERENCE_ROWS_N5[(n, m)], jobs=2)


class TestCriterion3ExampleRegressions:
    def test_worked_equation_reproduced(self):
        with criterion("3 input-output equation term-for-term"):
            from test_ioeq import TestWorkedExampleEquation

            TestWorkedExampleEquation().test_full_equation()

    def test_rank_seven_with_monomials(self):
        with criterion("3 path/cycle certificate rank 7"):
            from identkit.identcore import is_identifiable_path_cycle_model

            ok, basis = is_identifiable_path_cycle_model(cascade_exchange(), seed=0)
            assert ok
            assert set(basis.monomial_strings()) == {
                "a11", "a22", "a33", "a44", "a21", "a32*a23", "a43*a34",
            }

    def test_two_leak_restriction_identifiable(self):
        with criterion("3 leak removal to {1,2}"):
            m = cascade_exchange().with_leaks({1, 2})
            assert classify_identifiability(m, seed=0).verdict == "locally-identifiable"

    def test_leak_placement_families(self):
        with criterion("3 two-leak placement classification"):
            for leaks in ({2, 4}, {2, 3}, {1, 2}):
                assert (
                    classify_identifiability(star_two_exchanges(leaks), seed=0).verdict
                    == "locally-identifiable"
                )
            for leaks in ({3, 4}, {1, 4}, {1, 3}):
                assert (
                    classify_identifiability(star_two_exchanges(leaks), seed=0).verdict
                    == "unidentifiable"
                )
            for leaks in ({3, 4}, {2, 3}, {1, 4}, {1, 2}):
                assert (
                    classify_identifiability(star_prime(leaks), seed=0).verdict
                    == "locally-identifiable"
                )
            for leaks in ({2, 4}, {1, 3}):
                assert (
                    classify_identifiability(star_prime(leaks), seed=0).verdict
                    == "unidentifiable"
                )

    def test_output_connectable_example(self):
        with criterion("3 output-connectable rank 4 and identifiability"):
            rank = expanded_rank(coefficient_map(fan_in({1, 2, 3}), MODE_DIAG), seed=0)
            assert rank == 4
            assert classify_identifiability(fan_in({1, 2}), seed=0).verdict == "locally-identifiable"

    def test_below_bound_example(self):
        with criterion("3 rank 4 below bound 5; all 2-leak placements fail"):
            from itertools import combinations

            m = fan_in_bypass()
            assert expanded_rank(coefficient_map(m, MODE_DIAG), seed=0) == 4
            for leaks in combinations(m.vertices, 2):
                assert (
                    classify_identifiability(m.with_leaks(leaks), seed=0).verdict
                    == "unidentifiable"
                )

    def test_construction_example(self):
        with criterion("3 construction yields identifiable one-leak model"):
            script = ConstructionScript(steps=((1, 1, 2), (2, 3, 2)), final_leak=5)
            model, certs = run_construction(script, seed=0)
            assert model.edges == loop_with_tail().edges
            assert classify_identifiability(model, seed=2).verdict == "locally-identifiable"
            assert certs

    def test_dual_io_ranks(self):
        with criterion("3 path/cycle ranks 10 and 12"):
            from identkit.cyclespace import path_cycle_rank

            assert path_cycle_rank(dual_io_hub())[0] == 10
            assert path_cycle_rank(dual_io_square())[0] == 12


class TestCriterion4PropertySuites:
    """Re-runs the randomized property suites under a fresh logged seed."""

    SEED = 77003917

    def _rng(self):
        print(f"acceptance property seed: {self.SEED}")
        return random.Random(self.SEED)

    def test_determinant_oracle(self):
        with criterion("4 determinant oracle equivalence (200 cases)"):
            from test_sympoly import TestDeterminantOracle

            TestDeterminantOracle().test_char_and_minors_match_leibniz(self._rng())

    def test_coefficient_count_formula(self):
        with criterion("4 coefficient-count formula (200 cases)"):
            from test_ioeq import TestCountFormulaProperty

            TestCountFormulaProperty().test_nonzero_coefficient_counts(self._rng())

    def test_highest_order_coefficient(self):
        with criterion("4 highest-order input coefficient (200 cases)"):
            from test_ioeq import TestHighestOrderInputCoefficient

            TestHighestOrderInputCoefficient().test_shortest_path_sum(self._rng())

    def test_path_cycle_rank_equality(self):
        with criterion("4 path/cycle rank equality on SIOC graphs (200 cases)"):
            from test_cyclespace import TestPathCycleRank

            TestPathCycleRank().test_sioc_rank_equality(self._rng())

    def test_rank_bound(self):
        with criterion("4 rank bound never exceeded (120 cases)"):
            from test_identcore import TestRankProperties

            TestRankProperties().test_rank_bound_never_exceeded(self._rng())

    def test_leak_surgery_rank_preservation(self):
        with criterion("4 leak removal/addition preserves rank (80 cases)"):
            from test_transforms import TestRankPreservationProperties

            suite = TestRankPreservationProperties()
            suite.test_leak_removal_preserves_rank(self._rng())
            suite.test_leak_addition_chain_preserves_rank(self._rng())

    def test_identifiability_biconditional(self):
        with criterion("4 identifiability biconditional (80 cases)"):
            from test_identcore import TestRankProperties

            TestRankProperties().test_identifiability_biconditional(self._rng())

    def test_mode_consistency(self):
        with criterion("4 explicit/diagonal-generic rank agreement (60 cases)"):
            from test_identcore import TestRankProperties

            TestRankProperties().test_mode_consistency(self._rng())


def test_criterion_5_rank_stability_across_seeds():
    with criterion("5 rank stability across 3 seeds on example models"):
        examples = [
            cascade_exchange(),
            cascade_exchange().with_leaks({1, 2}),
            star_two_exchanges(),
            star_two_exchanges({2, 4}),
            star_prime(),
            star_prime({1, 2}),
            fan_in({1, 2, 3}),
            fan_in({1, 2}),
            fan_in_bypass(),
            cycle_with_chord(),
            loop_with_tail(),
            loop_with_tail().with_leaks({5}),
            dual_io_hub(),
            dual_io_square(),
        ]
        for model in examples:
            mode = MODE_DIAG if model.leaks == frozenset(model.vertices) else "explicit"
            cm = coefficient_map(model, mode)
            ranks = {expanded_rank(cm, seed=s) for s in (101, 202, 303)}
            assert len(ranks) == 1, (model, ranks)
