"""Rank-based identifiability decisions and structural necessary conditions.

Local identifiability is decided by the generic rank of the Jacobian of the
coefficient map, evaluated at one point per rank.  The seed picks the prime
``p = PRIMES[seed % 3]``, one of the three largest below 2^62, and, with a
key naming what is ranked, the point: drawn uniformly from the nonzero
residues mod p.  The gradient of every coefficient polynomial is evaluated
there in one pass over its terms (no symbolic partial derivative is built).
``jacobian_ranks`` is the one rank engine, shared with the census.

A full rank at an integer point mod a prime is a full rank over Q, so it is
proof-grade.  A rank deficit is probabilistic: if the maximal minor is
nonzero mod p, a uniform point in 1..p-1 misses it with probability at most
d/(p-1) (Schwartz-Zippel, d its degree), below 1.2e-17 at n = 5.  A minor
whose integer content p divides reads as a deficit at every point mod p; a
rerun at seed + 1 and seed + 2 reaches the other two primes.  Reports keep
a deficit separate from the certificate-grade structural screens (parameter
count, exchange, direct edge, short path).

With a leak in every compartment, a_ii = -a_0i - (sum of the outflows of i)
is a linear change of coordinates with an integer Jacobian of determinant
+-1, and the explicit coefficient map is the diag map composed with it, for
the submatrix of every output too (both keep the outflows that leave it).
Composition keeps zero, nonzero, equal and distinct polynomials apart, so
both maps have as many coefficients; by the chain rule the explicit
Jacobian at a point is the diag Jacobian at its image times that
unimodular matrix, so both have one rank mod p.  An explicit analysis of a
full-leak model therefore ranks the diag map, with a small fraction of the
terms, at the image of the explicit map's own point (``diag_point``), and
reports exactly the explicit map's count and rank without expanding it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from . import graphprops
from .ioeq import CoefficientMap, coefficient_map, expected_coefficient_count
from .model import MODE_DIAG, MODE_EXPLICIT, CompartmentalModel, normalize_mode
from .sympoly import SparsePoly, VarTable, jacobian_at

if TYPE_CHECKING:
    from .cyclespace import PathCycleBasis

# seed s works mod PRIMES[s % 3]: the three largest primes below 2^62
PRIMES = (4611686018427387847, 4611686018427387817, 4611686018427387787)


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


def random_point(table: VarTable, rng: random.Random, p: int) -> tuple[int, ...]:
    """Parameter values drawn uniformly from 1..p-1, the nonzero residues mod
    the prime ``p``."""
    return tuple(rng.randrange(1, p) for _ in table.params)


def _reduce(row: list[int], basis: list[tuple[int, list[int]]], p: int) -> list[int]:
    """``row`` minus its multiples of the ``basis`` rows, in their order: each
    basis row is 1 at its pivot column and 0 at the pivots before it, so the
    result is 0 at every pivot."""
    for c, b in basis:
        f = row[c]
        if f:
            row = [(x - f * y) % p for x, y in zip(row, b)]
    return row


def _extend(basis: list[tuple[int, list[int]]], rows, p: int) -> int:
    """Append to ``basis`` each of ``rows`` outside its span, reduced and
    scaled to 1 at its first nonzero column; returns how many were added."""
    size = len(basis)
    for row in rows:
        row = _reduce(row, basis, p)
        for c, x in enumerate(row):
            if x:
                inv = pow(x, -1, p)
                basis.append((c, [y * inv % p for y in row]))
                break
    return len(basis) - size


def rank_mod_p(rows: Sequence[Sequence[int]], p: int, subsets: Sequence[Sequence[int]]) -> list[int]:
    """Rank over F_p of each subset of ``rows``, given as row ids.

    The rows common to every subset are eliminated once; each other row is
    reduced against that basis once, and each subset ranks only its own
    residual rows.  With a single subset this is one plain elimination.
    """
    common = set(subsets[0]).intersection(*subsets[1:]) if subsets else set()
    basis: list[tuple[int, list[int]]] = []
    shared = _extend(basis, ([x % p for x in rows[r]] for r in sorted(common)), p)
    others = set().union(*subsets) - common
    residual = {r: _reduce([x % p for x in rows[r]], basis, p) for r in others}
    return [shared + _extend([], (residual[r] for r in ids if r not in common), p) for ids in subsets]


def jacobian_ranks(
    polys: Sequence[SparsePoly],
    table: VarTable,
    seed: int,
    key: Sequence[str],
    subsets: Sequence[Sequence[int]],
    substitute: Callable[[tuple[int, ...], int], tuple[int, ...]] | None = None,
) -> list[int]:
    """Ranks of row subsets (lists of row ids) of the Jacobian of ``polys``
    (rows) by the parameters of ``table`` (columns), at one point.

    The point is drawn from the nonzero residues mod ``p = PRIMES[seed % 3]``
    by the stream ``derived_rng(seed, *key)`` and, when given, mapped by
    ``substitute(point, p)``; the Jacobian is evaluated there mod p and every
    subset is ranked in one ``rank_mod_p`` call.  A rank found mod a prime
    is a lower bound on the rank over Q, so a full rank is proof-grade; a
    deficit rests on the random point (Schwartz-Zippel).
    """
    p = PRIMES[seed % len(PRIMES)]
    point = random_point(table, derived_rng(seed, *key), p)
    if substitute is not None:
        point = substitute(point, p)
    return rank_mod_p(jacobian_at(polys, point, p), p, subsets)


def diag_point(model: CompartmentalModel, point: Sequence[int], p: int) -> tuple[int, ...]:
    """A point of the full-leak ``model``'s explicit parameters (edge rates,
    then leaks) as one of its diag parameters: the same edge rates, then
    a_ii = -a_0i - (sum of the outflows of i), mod p."""
    ne = len(model.edges)
    diag = [-x for x in point[ne:]]
    for param, x in zip(model.edge_params(), point):
        diag[param.j - 1] -= x  # the rate a_ij drains compartment j
    return (*point[:ne], *(d % p for d in diag))


def jacobian_rank(
    cmap: CoefficientMap, seed: int = 0, *, explicit_of: CompartmentalModel | None = None
) -> int:
    """Jacobian rank of the coefficient map at the random point of ``seed``.

    With ``explicit_of``, a full-leak model whose diag map is ``cmap``, the
    rank is that of the model's explicit map at its own random point, found
    from ``cmap`` at the point's ``diag_point`` image (module docstring).
    """
    order, substitute = cmap.param_order, None
    if explicit_of is not None:
        if explicit_of.leaks != frozenset(explicit_of.vertices) or order != tuple(
            explicit_of.params(MODE_DIAG)
        ):
            raise HypothesesNotMet("explicit_of must be a full-leak model whose diag map is cmap")
        order, substitute = explicit_of.params(MODE_EXPLICIT), partial(diag_point, explicit_of)
    key = "|".join(str(p) for p in order) + "#" + str(len(cmap.polys))
    (rank,) = jacobian_ranks(
        cmap.polys, cmap.table, seed, ("jacobian", key), [range(len(cmap.polys))], substitute
    )
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

    def to_dict(self) -> dict:
        return {s.name: {"status": s.status, "detail": s.detail} for s in self.screens}


def necessary_conditions(model: CompartmentalModel) -> NecessaryConditions:
    """Graph-structural screens that can certify unidentifiability outright.

    Direct-edge is path-length at k = 1, and both are the edge formula
    (``edge_formula_check``) on the full-leak model."""
    n = model.n
    ne = len(model.edges)
    nl = len(model.leaks)
    iuo = model.in_union_out
    screens: list[ConditionResult] = []

    # parameter count vs the maximal dimension |E| + |In u Out|
    if bound_tier(model) == "path-cycle":
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

    # in = out with the maximal 2|V|-2 edges, |V| >= 2: an exchange is mandatory
    in_is_out = len(model.inputs) == 1 and model.inputs == model.outputs
    if in_is_out and n >= 2 and ne == 2 * n - 2 and nl == 1 and graphprops.is_strongly_connected(model):
        edges = set(model.edges)
        has_exchange = any((d, s) in edges for s, d in model.edges)
        if has_exchange:
            screens.append(ConditionResult("exchange", "inconclusive", "an exchange is present"))
        else:
            screens.append(
                ConditionResult("exchange", "certified-unidentifiable", "no exchange in the graph")
            )
    else:
        screens.append(ConditionResult("exchange", "skipped", "hypotheses not met"))

    # distinct single input/output with 2|V|-(k+2) edges: a path of length <= k
    # is mandatory; at k = 1 (2|V|-3 edges) that path is the direct edge
    k = 2 * n - 2 - ne
    distinct_io = len(model.inputs) == len(model.outputs) == 1 and model.inputs != model.outputs
    if (
        distinct_io
        and k >= 1
        and nl == len(iuo)
        and graphprops.is_strongly_input_output_connected(model)
    ):
        (i,) = model.inputs
        (j,) = model.outputs
        d = graphprops.dist(model, i, j)
        short = d <= k
        if k == 1:
            screens.append(
                ConditionResult("direct-edge", "inconclusive", f"edge {i}->{j} present")
                if short
                else ConditionResult("direct-edge", "certified-unidentifiable", f"no edge {i}->{j}")
            )
        else:
            screens.append(ConditionResult("direct-edge", "skipped", "hypotheses not met"))
        screens.append(
            ConditionResult("path-length", "inconclusive", f"dist({i},{j})={d} <= {k}")
            if short
            else ConditionResult(
                "path-length", "certified-unidentifiable", f"no path {i}->{j} of length at most {k}"
            )
        )
    else:
        screens.append(ConditionResult("direct-edge", "skipped", "hypotheses not met"))
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
    model: CompartmentalModel, seed: int = 0, mode: str | None = None
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
    # with a leak everywhere the explicit map's count and rank are the diag map's
    via_diag = full_leaks and mode == MODE_EXPLICIT
    cmap = coefficient_map(model, MODE_DIAG if via_diag else mode)
    tier = bound_tier(model)
    bound = len(model.edges) + len(model.in_union_out) if tier else None
    rank = jacobian_rank(cmap, seed, explicit_of=model if via_diag else None)
    param_count = len(cmap.param_order)
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
        strongly_connected=graphprops.is_strongly_connected(model),
        strongly_input_output_connected=graphprops.is_strongly_input_output_connected(model),
        output_connectable=graphprops.is_output_connectable(model),
        minimality_warning=cmap.minimality_warning,
        conditions=conditions,
        seed=seed,
    )


@dataclass(frozen=True)
class ExpectedDimensionResult:
    equals_bound: bool
    rank: int
    bound: int
    tier: str  # "path-cycle" | "output-connectable"


def expected_dimension_test(model: CompartmentalModel, seed: int = 0) -> ExpectedDimensionResult:
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
    rank = jacobian_rank(coefficient_map(model, MODE_DIAG), seed)
    if rank > bound:
        raise AssertionError(f"rank {rank} exceeds the certified bound {bound}")
    return ExpectedDimensionResult(equals_bound=rank == bound, rank=rank, bound=bound, tier=tier)


def is_identifiable_path_cycle_model(
    model: CompartmentalModel, seed: int = 0
) -> tuple[bool, PathCycleBasis]:
    """Expected dimension certifies that every independent cycle and
    input-output path monomial is locally identifiable; returns those
    monomials alongside the decision."""
    from . import cyclespace

    if model.leaks != frozenset(model.vertices):
        raise HypothesesNotMet("identifiable path/cycle analysis requires leaks everywhere")
    if bound_tier(model) != "path-cycle":
        raise HypothesesNotMet(
            "needs strongly input-output connected with one output or strongly "
            "connected with one input"
        )
    result = expected_dimension_test(model, seed)
    return result.equals_bound, cyclespace.path_cycle_basis(model)


def self_cycles_identifiable(model: CompartmentalModel, seed: int = 0) -> bool:
    """When the full-leak rank reaches |E|+|In u Out| for an
    output-connectable single-output model, every diagonal parameter is a
    locally identifiable function."""
    if model.leaks != frozenset(model.vertices):
        raise HypothesesNotMet("requires a leak in every compartment")
    if len(model.outputs) != 1 or not graphprops.is_output_connectable(model):
        raise HypothesesNotMet("requires an output-connectable model with a single output")
    result = expected_dimension_test(model, seed)
    return result.equals_bound


def edge_formula_check(model: CompartmentalModel) -> bool:
    """|E| + |In u Out| <= expected number of coefficients."""
    count = expected_coefficient_count(model)
    if count is None:
        raise HypothesesNotMet("expected coefficient count is not applicable to this model")
    return len(model.edges) + len(model.in_union_out) <= count
