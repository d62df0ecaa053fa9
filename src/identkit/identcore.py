"""Rank-based identifiability decisions and structural necessary conditions.

Local identifiability is decided by the generic rank of the Jacobian of the
coefficient map at one point, by linear algebra mod p in time polynomial in
n, with no determinant expanded (S. Sedoglavic, J. Symbolic Comput. 33,
2002).  The seed picks the prime ``p = PRIMES[seed % 3]``, one of the three
largest below 2^62, and, with a key naming what is ranked, the point theta,
drawn uniformly from the nonzero residues mod p.

Why the rank is exact.  For an output j whose reachable set H has d
vertices, the Faddeev-LeVerrier recurrence B_{d-1} = I,
c_k = -tr(A_H B_k)/(d-k), B_{k-1} = A_H B_k + c_k I gives at theta the
characteristic coefficients c_k and the adjugate adj(lI - A_H) =
sum_k B_k l^k, whose (j, i) entries (B_k)_ji are input i's cofactor
coefficients.  Since d det(lI - A)/dA_uv = -adj(lI - A)_vu, the row of c_k
is exactly dc_k/dA_uv = -(B_k)_vu.  adj_ji(l) sums the walks i -> j, so
for i != j it has degree d - 1 - dist(i, j) in l, and is 0 when no path
i -> j exists; B_{d-1} = I makes adj_ii(l) monic of degree d - 1.  So the
gradient g(l) = sum_k l^k grad (B_k)_ji of adj_ji(l) has d - dist(i, j)
coefficient vectors, d - 1 when i = j, and at as many distinct l it is a
Vandermonde image of them.  With delta = det(lI - A_H) and
adj = delta (lI - A_H)^-1, the row [adj_ju(l) adj_vi(l)] over the entries
(u, v) is delta(l) g(l) - adj_ji(l) grad delta(l): for l drawn after theta
and redrawn while it repeats or delta(l) = 0 mod p, a nonzero multiple of
g(l) plus characteristic rows.  So an output's characteristic rows with
any of its cofactor blocks have exactly the expanded Jacobian's rank at
theta.  An explicit parameter is a column operation on A's entries
(edge s -> t: A[t][s] - A[s][s]; leak v: -A[v][v]).  The
coefficient count is the number of distinct nonzero values among the c_k
and (B_k)_ji: equal polynomials have equal values, and distinct or nonzero
ones keep distinct or nonzero values but for a vanishing chance.

A full rank at an integer point mod a prime is a full rank over Q, so it is
proof-grade.  A rank deficit is probabilistic: if the maximal minor is
nonzero mod p, a uniform point in 1..p-1 misses it with probability at most
d/(p-1) (Schwartz-Zippel, d its degree), below 1.2e-17 at n = 5; the values
l add nothing to that bound, since the rank is the expanded Jacobian's at
theta whatever they are.  A minor whose integer content p divides reads as
a deficit at every point mod p; a rerun at seed + 1 and seed + 2 reaches
the other two primes.  Reports keep a deficit separate from the
certificate-grade structural screens (parameter count, exchange, direct
edge, short path).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Sequence

from . import graphprops
from .ioeq import NoInputReachesOutput, expected_coefficient_count, minimality_warning
from .model import MODE_DIAG, MODE_EXPLICIT, CompartmentalModel, ModeRequiresFullLeaks, normalize_mode

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


def random_point(count: int, rng: random.Random, p: int) -> tuple[int, ...]:
    """``count`` values drawn uniformly from 1..p-1, the nonzero residues
    mod the prime ``p``."""
    return tuple(rng.randrange(1, p) for _ in range(count))


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


# -- the coefficient map's Jacobian at a point ------------------------------


def entry_slots(n: int, edges) -> list[tuple[int, int]]:
    """The entries (row, column), 0-based, of A's diag-mode parameters in
    their order: each edge s -> t at (t-1, s-1), sorted, then the diagonal."""
    return sorted((t - 1, s - 1) for s, t in edges) + [(v, v) for v in range(n)]


def point_matrix(model: CompartmentalModel, mode: str, point: Sequence[int], p: int) -> list[list[int]]:
    """A, 0-based, mod p, at ``point``: the values of ``model.params(mode)``.
    In explicit mode a_vv = -a_0v - (the outflows of v)."""
    mode = normalize_mode(mode)
    if mode == MODE_DIAG and model.leaks != frozenset(model.vertices):
        raise ModeRequiresFullLeaks("diag mode requires a leak in every compartment")
    n, ne = model.n, len(model.edges)
    matrix = [[0] * n for _ in range(n)]
    if mode == MODE_DIAG:
        diagonal = list(point[ne:])
    else:
        diagonal = [0] * n
        for v, x in zip(sorted(model.leaks), point[ne:]):
            diagonal[v - 1] = -x
    for (t, s), x in zip(entry_slots(n, model.edges), point[:ne]):
        matrix[t][s] = x
        if mode == MODE_EXPLICIT:
            diagonal[s] -= x  # the rate a_ts drains compartment s
    for v, x in enumerate(diagonal):
        matrix[v][v] = x % p
    return matrix


def output_rows(matrix, keep: Sequence[int], slots, pairs, dist, rng: random.Random, p: int):
    """(blocks, values): one output's Jacobian rows over the entries ``slots``
    of ``matrix`` (A mod p) and its coefficient values, for its reachable
    set ``keep`` and the cofactor positions ``pairs`` (input i, output j),
    all 0-based, with ``dist[i][j]`` the length of a shortest path i -> j.
    The first block holds the rows of the d characteristic coefficients
    c_{d-1}..c_0; then each pair has a block of d - dist(i, j) rows, d - 1
    when i = j and none when no path i -> j exists, at the first of d - 1
    values l drawn from ``rng``, and adds the values (B_{d-2})_ji..(B_0)_ji
    (module docstring)."""
    d = len(keep)
    local = {v: r for r, v in enumerate(keep)}
    nonzero = [[(c, x) for c, v in enumerate(keep) if (x := matrix[u][v])] for u in keep]
    columns = [(k, local[u], local[v]) for k, (u, v) in enumerate(slots) if u in local and v in local]
    adjugate, values = [], []  # B_{d-1}..B_0 and c_{d-1}..c_0
    current = [[int(r == c) for c in range(d)] for r in range(d)]
    for k in range(d - 1, -1, -1):
        adjugate.append(current)
        trace = sum(x * current[c][r] for r, row in enumerate(nonzero) for c, x in row)
        values.append(-trace * pow(d - k, -1, p) % p)
        if k:  # current = A_H current + c_k I
            product = []
            for r, row in enumerate(nonzero):
                acc = [0] * d
                for c, x in row:
                    acc = [a + x * b for a, b in zip(acc, current[c])]
                acc[r] += values[-1]
                product.append([a % p for a in acc])
            current = product
    blocks = [[]]
    for b in adjugate:
        blocks[0].append([0] * len(slots))
        for k, u, v in columns:
            blocks[0][-1][k] = -b[v][u]

    lams: list[int] = []
    while pairs and len(lams) < d - 1:
        lam = rng.randrange(1, p)
        delta = reduce(lambda acc, c: (acc * lam + c) % p, values, 1)  # det(lI - A_H)
        if delta and lam not in lams:
            lams.append(lam)
    # adj_ji(l) has degree d - 1 - dist(i, j), and adj_ii(l) is monic of degree d - 1
    sizes = [d - 1 if i == j else d - min(dist[i][j], d) for i, j in pairs]
    lams = lams[: max(sizes, default=0)]

    def at(vectors, lam):  # sum_k vectors[k] lam^k, by Horner from k = d-1 down
        return reduce(lambda acc, vec: [(a * lam + b) % p for a, b in zip(acc, vec)], vectors)

    # per l: row j and column i of adj(lI - A_H) for each output j and input i
    row_of = {j: [b[local[j]] for b in adjugate] for _, j in pairs}
    column_of = {i: [[r[local[i]] for r in b] for b in adjugate] for i, _ in pairs}
    rows_at = [{j: at(vectors, lam) for j, vectors in row_of.items()} for lam in lams]
    columns_at = [{i: at(vectors, lam) for i, vectors in column_of.items()} for lam in lams]
    for (i, j), size in zip(pairs, sizes):
        blocks.append([])
        for at_j, at_i in zip(rows_at[:size], columns_at):
            adj_j, adj_i = at_j[j], at_i[i]
            blocks[-1].append([0] * len(slots))
            for k, u, v in columns:
                blocks[-1][-1][k] = adj_j[u] * adj_i[v]
        values += [b[local[j]][local[i]] for b in adjugate[1:]]
    return blocks, values


def jacobian_rank(model: CompartmentalModel, mode: str, seed: int = 0) -> tuple[int, int]:
    """(rank, coefficient count) of the model's coefficient map in ``mode``
    at the point of ``derived_rng(seed, "jacobian", key)``, the key naming
    the parameters in order."""
    order = model.params(mode)
    p = PRIMES[seed % len(PRIMES)]
    rng = derived_rng(seed, "jacobian", "|".join(str(x) for x in order))
    return point_rank(model, mode, random_point(len(order), rng, p), rng, p)


def point_rank(model: CompartmentalModel, mode: str, point, rng: random.Random, p: int) -> tuple[int, int]:
    """(rank, coefficient count) of the model's coefficient map in ``mode``
    at ``point``, mod p, with values l from ``rng``; NoInputReachesOutput
    when no input reaches an output."""
    slots, matrix = entry_slots(model.n, model.edges), point_matrix(model, mode, point, p)
    rows, values = [], set()
    for j in sorted(model.outputs):
        keep = sorted(graphprops.output_reachable_set(model, j))
        live = sorted(model.inputs.intersection(keep))
        if not live:
            raise NoInputReachesOutput(f"no input has a directed path to output {j}")
        pairs = [(i - 1, j - 1) for i in live]
        blocks, found = output_rows(matrix, [v - 1 for v in keep], slots, pairs, model.closure.dist, rng, p)
        rows += [row for block in blocks for row in block]
        values.update(found)
    if mode == MODE_EXPLICIT:  # the chain rule through A's entries
        ne = len(model.edges)
        edges = [(k, ne + s) for k, (_, s) in enumerate(slots[:ne])]
        leaks = [ne + v - 1 for v in sorted(model.leaks)]
        rows = [[row[k] - row[c] for k, c in edges] + [-row[c] for c in leaks] for row in rows]
    (rank,) = rank_mod_p(rows, p, [range(len(rows))])
    return rank, len(values - {0})


def graph_ranks(n: int, edges, seed: int, key: Sequence[str], dist, sets) -> list[int]:
    """Rank of each cofactor set of ``sets`` in the full-leak diag map of the
    graph (n, ``edges``) at the point of ``derived_rng(seed, *key)``: of the
    rows of ``output_rows`` on all n vertices, the characteristic rows and
    the blocks of the set's 1-based positions (input, output).  ``dist`` is
    the graph's ``graphprops.closure`` distances.

    The characteristic rows are eliminated once, and each block is reduced
    against them once into an echelon of its own; a set extends a copy of
    its largest block's echelon by the others."""
    p = PRIMES[seed % len(PRIMES)]
    rng = derived_rng(seed, *key)
    slots = entry_slots(n, edges)
    matrix = [[0] * n for _ in range(n)]
    for (u, v), x in zip(slots, random_point(len(slots), rng, p)):
        matrix[u][v] = x
    pairs = list(dict.fromkeys(pos for cofactors in sets for pos in cofactors))
    zero_based = [(i - 1, j - 1) for i, j in pairs]
    (shared_rows, *blocks), _ = output_rows(matrix, range(n), slots, zero_based, dist, rng, p)
    basis: list[tuple[int, list[int]]] = []
    shared = _extend(basis, shared_rows, p)
    echelons = {}
    for pos, block in zip(pairs, blocks):
        echelons[pos] = []
        _extend(echelons[pos], (_reduce(row, basis, p) for row in block), p)
    ranks = []
    for cofactors in sets:
        largest, *others = sorted((echelons[pos] for pos in cofactors), key=len, reverse=True)
        joint = list(largest)
        for other in others:
            _extend(joint, (row for _, row in other), p)
        ranks.append(shared + len(joint))
    return ranks


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
    rank, coeff_count = jacobian_rank(model, mode, seed)
    tier = bound_tier(model)
    bound = len(model.edges) + len(model.in_union_out) if tier else None
    param_count = len(model.params(mode))
    warn = minimality_warning(model)
    conditions = necessary_conditions(model)
    if bound is not None and full_leaks and rank > bound:
        raise AssertionError(
            f"rank {rank} exceeds the certified bound {bound}; this should be impossible"
        )
    if warn:
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
        coeff_count=coeff_count,
        jacobian_rank=rank,
        expected_dimension_bound=bound,
        bound_tier=tier,
        verdict=verdict,
        strongly_connected=graphprops.is_strongly_connected(model),
        strongly_input_output_connected=graphprops.is_strongly_input_output_connected(model),
        output_connectable=graphprops.is_output_connectable(model),
        minimality_warning=warn,
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
    rank, _ = jacobian_rank(model, MODE_DIAG, seed)
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
