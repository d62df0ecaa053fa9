"""Rank-based identifiability decisions and structural necessary conditions.

Local identifiability is decided by the generic rank of the Jacobian of the
coefficient map: at random nonzero integer points, modulo independent random
~62-bit primes, the gradient of every coefficient polynomial is evaluated in
one pass over its terms (no symbolic partial derivative is built); the rank
reported is the maximum over trials.
``jacobian_ranks`` is the one rank engine, shared with the census.  A rank
deficit observed at random points is overwhelming but not proof-grade
evidence, so reports keep it separate from the certificate-grade structural
screens (parameter count, exchange, direct edge, short path).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from . import cyclespace, graphprops
from .cyclespace import PathCycleBasis
from .ioeq import CoefficientMap, coefficient_map, expected_coefficient_count
from .model import MODE_DIAG, MODE_EXPLICIT, CompartmentalModel, ModelError, normalize_mode
from .sympoly import SparsePoly, VarTable, jacobian_at

VALUE_BOUND = 10_000
PRIME_LOW = 2**61
PRIME_HIGH = 2**62
DEFAULT_TRIALS = 3
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461  # least composite that passes every base above


class HypothesesNotMet(ValueError):
    pass


def derived_rng(seed: int, *key_parts: str) -> random.Random:
    """RNG stream tied to (seed, key) so batch evaluation order is irrelevant."""
    h = hashlib.sha256()
    h.update(str(seed).encode())
    for part in key_parts:
        h.update(b"\x00")
        h.update(part.encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over ``PRIME_BASES``: exact below PSI_12
    (about 3.18e23, far above PRIME_HIGH) and refused from there on."""
    if n >= PSI_12:
        raise ValueError(f"{n} is outside the exact range of the 12-base test")
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_62(rng: random.Random) -> int:
    """A random prime in (2^61, 2^62)."""
    while True:
        candidate = rng.randrange(PRIME_LOW + 1, PRIME_HIGH, 2)
        if is_prime(candidate):
            return candidate


def random_point(table: VarTable, rng: random.Random) -> tuple[int, ...]:
    """Parameter values drawn uniformly from nonzero integers in [-10^4, 10^4],
    so none vanishes mod a prime above 2^61."""
    vals = []
    for _ in table.params:
        v = 0
        while v == 0:
            v = rng.randint(-VALUE_BOUND, VALUE_BOUND)
        vals.append(v)
    return tuple(vals)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Gaussian elimination rank over F_p."""
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], p - 2, p)
        mrow = m[row]
        for r in range(row + 1, nrows):
            f = m[r][col]
            if f:
                f = f * inv % p
                rr = m[r]
                for c in range(col, ncols):
                    rr[c] = (rr[c] - f * mrow[c]) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def jacobian_ranks(
    polys: Sequence[SparsePoly],
    table: VarTable,
    rng: random.Random,
    trials: int,
    subsets: Sequence[tuple[Sequence[int], int]],
) -> list[int]:
    """Maximum rank, over ``trials`` random points, of row subsets of the
    Jacobian of ``polys`` (rows) by the parameters of ``table`` (columns).

    Each subset is (row ids, target rank).  A trial draws a prime and a
    nonzero point, evaluates the Jacobian there mod p, and ranks each subset
    that has not reached its target; trials stop once all have.
    """
    if trials < 1:
        raise ModelError(f"trials must be at least 1, got {trials}")
    best = [0] * len(subsets)
    for _ in range(trials):
        if all(b >= target for b, (_, target) in zip(best, subsets)):
            break
        p = random_prime_62(rng)
        jac = jacobian_at(polys, random_point(table, rng), p)
        for k, (ids, target) in enumerate(subsets):
            if best[k] < target:
                best[k] = max(best[k], rank_mod_p([jac[r] for r in ids], p))
    return best


def jacobian_rank(cmap: CoefficientMap, seed: int = 0, trials: int = DEFAULT_TRIALS) -> int:
    """Maximum Jacobian rank observed over ``trials`` random evaluations."""
    key = "|".join(str(p) for p in cmap.param_order) + "#" + str(len(cmap.polys))
    rng = derived_rng(seed, "jacobian", key)
    target = min(len(cmap.polys), len(cmap.param_order))
    (rank,) = jacobian_ranks(cmap.polys, cmap.table, rng, trials, [(range(len(cmap.polys)), target)])
    return rank


# -- analysis ---------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one structural screen."""

    name: str
    status: str  # "certified-unidentifiable" | "inconclusive" | "skipped"
    detail: str


@dataclass(frozen=True)
class NecessaryConditions:
    screens: tuple[ConditionResult, ...]

    @property
    def certified_unidentifiable(self) -> bool:
        return any(s.status == "certified-unidentifiable" for s in self.screens)

    def to_dict(self) -> dict:
        return {s.name: {"status": s.status, "detail": s.detail} for s in self.screens}


def necessary_conditions(model: CompartmentalModel) -> NecessaryConditions:
    """Graph-structural screens that can certify unidentifiability outright."""
    n = model.n
    ne = len(model.edges)
    nl = len(model.leaks)
    iuo = model.in_union_out
    sioc = graphprops.is_strongly_input_output_connected(model)
    sc = graphprops.is_strongly_connected(model)
    single_in = len(model.inputs) == 1
    single_out = len(model.outputs) == 1
    screens: list[ConditionResult] = []

    # parameter count vs the maximal dimension |E| + |In u Out|
    if (sioc and single_out) or (sc and single_in):
        if nl > len(iuo):
            screens.append(
                ConditionResult(
                    "leak-count",
                    "certified-unidentifiable",
                    f"{ne}+{nl} parameters exceed the maximal dimension {ne}+{len(iuo)}",
                )
            )
        else:
            screens.append(ConditionResult("leak-count", "inconclusive", f"|L|={nl} <= {len(iuo)}"))
    else:
        screens.append(ConditionResult("leak-count", "skipped", "connectivity hypotheses not met"))

    # in = out with the maximal 2|V|-2 edges: an exchange is mandatory
    if sc and single_in and model.inputs == model.outputs and ne == 2 * n - 2 and nl == 1:
        has_exchange = any((d, s) in model._edge_set for s, d in model.edges)
        if has_exchange:
            screens.append(ConditionResult("exchange", "inconclusive", "an exchange is present"))
        else:
            screens.append(
                ConditionResult("exchange", "certified-unidentifiable", "no exchange in the graph")
            )
    else:
        screens.append(ConditionResult("exchange", "skipped", "hypotheses not met"))

    # distinct single input/output with 2|V|-3 edges: a direct edge is mandatory
    distinct_io = single_in and single_out and model.inputs != model.outputs
    if distinct_io and sioc and ne == 2 * n - 3 and nl == len(iuo):
        (i,) = model.inputs
        (j,) = model.outputs
        if model.has_edge(i, j):
            screens.append(ConditionResult("direct-edge", "inconclusive", f"edge {i}->{j} present"))
        else:
            screens.append(
                ConditionResult(
                    "direct-edge", "certified-unidentifiable", f"no edge {i}->{j}"
                )
            )
    else:
        screens.append(ConditionResult("direct-edge", "skipped", "hypotheses not met"))

    # distinct single input/output with 2|V|-(k+2) edges: a path of length <= k is mandatory
    k = 2 * n - 2 - ne
    if distinct_io and sioc and k >= 1 and nl == len(iuo):
        (i,) = model.inputs
        (j,) = model.outputs
        d = graphprops.dist(model, i, j)
        if isinstance(d, int) and d <= k:
            screens.append(
                ConditionResult("path-length", "inconclusive", f"dist({i},{j})={d} <= {k}")
            )
        else:
            screens.append(
                ConditionResult(
                    "path-length",
                    "certified-unidentifiable",
                    f"no path {i}->{j} of length at most {k}",
                )
            )
    else:
        screens.append(ConditionResult("path-length", "skipped", "hypotheses not met"))

    return NecessaryConditions(tuple(screens))


@dataclass(frozen=True)
class AnalysisReport:
    model: CompartmentalModel
    mode: str
    param_count: int
    coeff_count: int
    jacobian_rank: int
    expected_dimension_bound: int | None
    bound_tier: str | None  # "path-cycle" | "output-connectable" | None
    verdict: str
    strongly_connected: bool
    strongly_input_output_connected: bool
    output_connectable: bool
    minimality_warning: bool
    conditions: NecessaryConditions
    seed: int
    trials: int

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "mode": self.mode,
            "param_count": self.param_count,
            "coeff_count": self.coeff_count,
            "jacobian_rank": self.jacobian_rank,
            "expected_dimension_bound": self.expected_dimension_bound,
            "bound_tier": self.bound_tier,
            "verdict": self.verdict,
            "flags": {
                "strongly_connected": self.strongly_connected,
                "strongly_input_output_connected": self.strongly_input_output_connected,
                "output_connectable": self.output_connectable,
                "minimality_warning": self.minimality_warning,
            },
            "necessary_conditions": self.conditions.to_dict(),
            "seed": self.seed,
            "trials": self.trials,
        }


def bound_tier(model: CompartmentalModel) -> str | None:
    """Which theory bounds the full-leak rank by |E|+|In u Out|: "path-cycle"
    (strongly input-output connected with one output, or strongly connected
    with one input), "output-connectable" (one output), or None."""
    single_out = len(model.outputs) == 1
    if (single_out and graphprops.is_strongly_input_output_connected(model)) or (
        len(model.inputs) == 1 and graphprops.is_strongly_connected(model)
    ):
        return "path-cycle"
    if single_out and graphprops.is_output_connectable(model):
        return "output-connectable"
    return None


def classify_identifiability(
    model: CompartmentalModel,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    mode: str | None = None,
) -> AnalysisReport:
    """Full rank analysis of a model.

    With a partial leak set the verdict is locally-identifiable (rank equals
    the |E|+|Leak| parameter count) or unidentifiable.  With a leak in every
    compartment the meaningful verdict is whether the coefficient-map image
    reaches the |E|+|In u Out| bound: expected-dimension versus
    below-expected-dimension.  Multi-output models whose equations are not
    known to be minimal (not strongly connected with a leak) get
    not-applicable: their coefficient-map rank does not decide
    identifiability.
    """
    full_leaks = model.leaks == frozenset(model.vertices)
    if mode is None:
        mode = MODE_DIAG if full_leaks else MODE_EXPLICIT
    else:
        mode = normalize_mode(mode)
    cmap = coefficient_map(model, mode)
    rank = jacobian_rank(cmap, seed, trials)
    param_count = len(cmap.param_order)
    sioc = graphprops.is_strongly_input_output_connected(model)
    sc = graphprops.is_strongly_connected(model)
    tier = bound_tier(model)
    bound = len(model.edges) + len(model.in_union_out) if tier else None
    conditions = necessary_conditions(model)
    if bound is not None and full_leaks and rank > bound:
        raise AssertionError(
            f"rank {rank} exceeds the certified bound {bound}; this should be impossible"
        )
    if cmap.minimality_warning:
        verdict = "not-applicable"
    elif rank == param_count:
        verdict = "locally-identifiable"
    elif full_leaks:
        if bound is None:
            verdict = "unidentifiable"
        elif rank == bound:
            verdict = "expected-dimension"
        else:
            verdict = "below-expected-dimension"
    else:
        verdict = "unidentifiable"
    return AnalysisReport(
        model=model,
        mode=mode,
        param_count=param_count,
        coeff_count=len(cmap),
        jacobian_rank=rank,
        expected_dimension_bound=bound,
        bound_tier=tier,
        verdict=verdict,
        strongly_connected=sc,
        strongly_input_output_connected=sioc,
        output_connectable=graphprops.is_output_connectable(model),
        minimality_warning=cmap.minimality_warning,
        conditions=conditions,
        seed=seed,
        trials=trials,
    )


@dataclass(frozen=True)
class ExpectedDimensionResult:
    equals_bound: bool
    rank: int
    bound: int
    tier: str  # "path-cycle" | "output-connectable"


def expected_dimension_test(
    model: CompartmentalModel, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> ExpectedDimensionResult:
    """Does the full-leak model's coefficient map reach rank |E|+|In u Out|?

    The bound is certified under (strongly input-output connected, single
    output) or (strongly connected, single input); for merely
    output-connectable single-output models the weaker upper-bound tier
    applies.  Anything else raises HypothesesNotMet.
    """
    if model.leaks != frozenset(model.vertices):
        raise HypothesesNotMet("expected-dimension test requires a leak in every compartment")
    tier = bound_tier(model)
    if tier is None:
        raise HypothesesNotMet(
            "needs strongly input-output connected with one output, strongly connected "
            "with one input, or output connectable with one output"
        )
    bound = len(model.edges) + len(model.in_union_out)
    rank = jacobian_rank(coefficient_map(model, MODE_DIAG), seed, trials)
    if rank > bound:
        raise AssertionError(f"rank {rank} exceeds the certified bound {bound}")
    return ExpectedDimensionResult(equals_bound=rank == bound, rank=rank, bound=bound, tier=tier)


def is_identifiable_path_cycle_model(
    model: CompartmentalModel, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> tuple[bool, PathCycleBasis]:
    """Expected dimension certifies that every independent cycle and
    input-output path monomial is locally identifiable; returns those
    monomials alongside the decision."""
    if model.leaks != frozenset(model.vertices):
        raise HypothesesNotMet("identifiable path/cycle analysis requires leaks everywhere")
    if bound_tier(model) != "path-cycle":
        raise HypothesesNotMet(
            "needs strongly input-output connected with one output or strongly "
            "connected with one input"
        )
    result = expected_dimension_test(model, seed, trials)
    return result.equals_bound, cyclespace.path_cycle_basis(model)


def self_cycles_identifiable(
    model: CompartmentalModel, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> bool:
    """When the full-leak rank reaches |E|+|In u Out| for an
    output-connectable single-output model, every diagonal parameter is a
    locally identifiable function."""
    if model.leaks != frozenset(model.vertices):
        raise HypothesesNotMet("requires a leak in every compartment")
    if len(model.outputs) != 1 or not graphprops.is_output_connectable(model):
        raise HypothesesNotMet("requires an output-connectable model with a single output")
    result = expected_dimension_test(model, seed, trials)
    return result.equals_bound


def edge_formula_check(model: CompartmentalModel) -> bool:
    """|E| + |In u Out| <= expected number of coefficients."""
    count = expected_coefficient_count(model)
    if count is None:
        raise HypothesesNotMet("expected coefficient count is not applicable to this model")
    return len(model.edges) + len(model.in_union_out) <= count
