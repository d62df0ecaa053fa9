"""Independent brute-force oracles.

Everything here recomputes a quantity by a route disjoint from the library's
implementation (permutation expansions, exhaustive enumerations, dense
closures) so golden values in the tests are frozen against these, not against
the code under test.  The one exception is the census evidence section, which
lists the labeled members behind the census's own class verdicts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations
from typing import Sequence

from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from identkit import census, graphprops
from identkit.census import CELLS, edge_slots, row_feasibility
from identkit.identcore import PRIMES, derived_rng, random_point, rank_mod_p
from identkit.ioeq import CoefficientMap
from identkit.model import CompartmentalModel, Param, compartmental_matrix, make_model
from identkit.sympoly import SLOT_BITS, SLOT_MASK, SparsePoly, VarTable, VariableMismatch, char_poly_coeffs


# -- the expanded Jacobian: every coefficient expanded, every term walked ----


def jacobian_at(polys: Sequence[SparsePoly], values: Sequence[int], p: int) -> list[list[int]]:
    """Jacobian of D-free ``polys`` (rows) by their parameters (columns) at
    ``values``, reduced mod the prime ``p``; no derivative is built.

    Each monomial is split into a low half (the first len(values) // 2
    slots) and a high half (the rest).  A half h is decoded once per call
    into its value v(h) mod p and its gradient: the derivative by slot i
    with exponent k_i is k_i * x_i^(k_i - 1) times the product of the
    half's other factors, read from prefix and suffix products of its
    factors, so no inverse is taken and a value that is 0 mod p is as good
    as any other.  The term c * lo * hi has gradient
    c * (v(hi) * grad(lo) + v(lo) * grad(hi)), so a row is the sum, over the
    distinct halves of its terms, of each half's gradient times the summed
    weights c * v(other half) of the terms that contain it.
    """
    ncols = len(values)
    split = ncols // 2 * SLOT_BITS  # the first bit of the high half
    low_mask = (1 << split) - 1
    # per half: packed half -> its value, and -> its gradient [(column, entry)]
    low_value: dict[int, int] = {}
    low_grad: dict[int, list[tuple[int, int]]] = {}
    high_value: dict[int, int] = {}
    high_grad: dict[int, list[tuple[int, int]]] = {}

    def decode(half: int, col: int, value: dict, grad: dict) -> int:
        """Record the value and gradient of ``half``, whose first slot is
        column ``col``, in ``value`` and ``grad``; returns the value."""
        key = half
        factors = []  # per factor x^k: column, x^k, k * x^(k-1), product of the factors before it
        v = 1
        while half:
            k = half & SLOT_MASK
            if k:
                if col == ncols:
                    raise VariableMismatch("cannot evaluate a polynomial containing D")
                x = values[col]
                if k == 1:
                    factors.append((col, x, 1, v))
                else:
                    x, slope = pow(x, k, p), k * pow(x, k - 1, p) % p
                    factors.append((col, x, slope, v))
                v = v * x % p
            half >>= SLOT_BITS
            col += 1
        rest = 1  # the product of the factors after the current one
        entries = []
        for c, power, slope, before in reversed(factors):
            entries.append((c, before * slope * rest % p))
            rest = rest * power % p
        value[key] = v
        grad[key] = entries
        return v

    rows = []
    for poly in polys:
        if len(poly.table.params) != ncols:
            raise VariableMismatch(
                f"point assigns {ncols} values for {len(poly.table.params)} parameters"
            )
        low_weight: dict[int, int] = {}
        high_weight: dict[int, int] = {}
        for e, c in poly.packed.items():
            lo = e & low_mask
            hi = e >> split
            v_lo = low_value.get(lo)
            if v_lo is None:
                v_lo = decode(lo, 0, low_value, low_grad)
            v_hi = high_value.get(hi)
            if v_hi is None:
                v_hi = decode(hi, ncols // 2, high_value, high_grad)
            low_weight[lo] = low_weight.get(lo, 0) + c * v_hi
            high_weight[hi] = high_weight.get(hi, 0) + c * v_lo
        grad = [0] * ncols
        for weights, grads in ((low_weight, low_grad), (high_weight, high_grad)):
            for half, w in weights.items():
                for i, g in grads[half]:
                    grad[i] += w * g
        rows.append([g % p for g in grad])
    return rows


def expanded_ranks(polys, table: VarTable, seed: int, key, subsets) -> list[int]:
    """Ranks of row subsets of the Jacobian of the expanded ``polys`` at the
    point the library draws for (seed, key): mod PRIMES[seed % 3], from the
    stream ``derived_rng(seed, *key)``."""
    p = PRIMES[seed % len(PRIMES)]
    point = random_point(len(table.params), derived_rng(seed, *key), p)
    return rank_mod_p(jacobian_at(polys, point, p), p, subsets)


def expanded_rank(cmap: CoefficientMap, seed: int = 0) -> int:
    """Jacobian rank of the expanded coefficient map at the point that
    ``identcore.jacobian_rank`` draws for the same parameters and seed."""
    key = ("jacobian", "|".join(str(x) for x in cmap.param_order))
    (rank,) = expanded_ranks(cmap.polys, cmap.table, seed, key, [range(len(cmap.polys))])
    return rank


def leibniz_det(rows, table: VarTable) -> SparsePoly:
    """Determinant by full permutation expansion (n! terms)."""
    dim = len(rows)
    total = SparsePoly.zero(table)
    for perm in permutations(range(dim)):
        sign = 1
        seen = [False] * dim
        for start in range(dim):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = SparsePoly.const(table, sign)
        for r in range(dim):
            term = term * rows[r][perm[r]]
            if term.is_zero():
                break
        total = total + term
    return total


def fraction_rank(rows) -> int:
    """Rank via plain Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, nrows):
            f = m[r][col] * inv
            if f:
                for c in range(col, ncols):
                    m[r][c] -= f * m[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def sympy_rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by sympy's DomainMatrix."""
    if not rows:
        return 0
    K = GF(p)
    return DomainMatrix([[K(x) for x in row] for row in rows], (len(rows), len(rows[0])), K).rank()


def dense_reachability(model: CompartmentalModel) -> dict[int, set[int]]:
    """Transitive closure by repeated squaring of the adjacency relation."""
    reach = {v: {d for s, d in model.edges if s == v} for v in model.vertices}
    changed = True
    while changed:
        changed = False
        for v in model.vertices:
            extra = set()
            for w in reach[v]:
                extra |= reach[w]
            if not extra <= reach[v]:
                reach[v] |= extra
                changed = True
    return reach


def floyd_warshall(n: int, edges) -> dict[tuple[int, int], int | float]:
    """All-pairs shortest directed path lengths (math.inf when unreachable)
    by Floyd-Warshall relaxation over every intermediate vertex."""
    vs = range(1, n + 1)
    d = {(i, j): 0 if i == j else math.inf for i in vs for j in vs}
    for e in edges:
        d[e] = 1
    for k in vs:
        for i in vs:
            for j in vs:
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def oracle_strongly_connected(model: CompartmentalModel) -> bool:
    reach = dense_reachability(model)
    vs = set(model.vertices)
    return all((reach[v] | {v}) == vs for v in model.vertices)


def all_simple_cycles_brute(model: CompartmentalModel) -> set[frozenset[tuple[int, int]]]:
    """Simple directed cycles (length >= 2), each as its edge set."""
    edges = set(model.edges)
    found: set[frozenset[tuple[int, int]]] = set()

    def walk(start, v, path_vertices, path_edges):
        for s, d in edges:
            if s != v:
                continue
            if d == start and len(path_edges) >= 1:
                found.add(frozenset(path_edges + [(s, d)]))
            elif d not in path_vertices:
                walk(start, d, path_vertices | {d}, path_edges + [(s, d)])

    for v in model.vertices:
        walk(v, v, {v}, [])
    return found


def all_io_paths_brute(model: CompartmentalModel) -> set[tuple[tuple[int, int], ...]]:
    out: set[tuple[tuple[int, int], ...]] = set()
    edges = set(model.edges)

    def walk(v, target, path_vertices, path_edges):
        if v == target and path_edges:
            out.add(tuple(path_edges))
            return
        for s, d in edges:
            if s == v and d not in path_vertices:
                walk(d, target, path_vertices | {d}, path_edges + [(s, d)])

    for i in model.inputs:
        for j in model.outputs:
            if i != j:
                walk(i, j, {i}, [])
    return out


def sioc_by_definition(model: CompartmentalModel) -> bool:
    """Strong input-output connectivity as defined: the graph is connected,
    and every edge lies on a simple directed cycle or on a simple directed
    path from an input to an output.  Connectivity comes from a dense
    closure of the symmetrized edges, the cycles and paths from exhaustive
    enumeration."""
    undirected = CompartmentalModel(
        model.n,
        tuple(set(model.edges) | {(d, s) for s, d in model.edges}),
        model.inputs,
        model.outputs,
        model.leaks,
    )
    reach = dense_reachability(undirected)
    if reach[1] | {1} != set(model.vertices):
        return False
    covered = set().union(*all_simple_cycles_brute(model), *map(set, all_io_paths_brute(model)))
    return covered == set(model.edges)


def shortest_path_monomials(model: CompartmentalModel, i: int, j: int, table: VarTable) -> SparsePoly:
    """Sum over shortest simple i->j paths of their edge-parameter products."""
    paths = [p for p in all_io_paths_brute_from(model, i, j)]
    if not paths:
        return SparsePoly.zero(table)
    shortest = min(len(p) for p in paths)
    total = SparsePoly.zero(table)
    for p in paths:
        if len(p) != shortest:
            continue
        term = SparsePoly.const(table, 1)
        for s, d in p:
            term = term * SparsePoly.var(table, Param.edge(s, d))
        total = total + term
    return total


def all_io_paths_brute_from(model: CompartmentalModel, i: int, j: int):
    out = []
    edges = set(model.edges)

    def walk(v, path_vertices, path_edges):
        if v == j and path_edges:
            out.append(tuple(path_edges))
            return
        for s, d in edges:
            if s == v and d not in path_vertices:
                walk(d, path_vertices | {d}, path_edges + [(s, d)])

    if i != j:
        walk(i, {i}, [])
    return out


def oracle_induced_strongly_connected(model: CompartmentalModel, members: set[int]) -> bool:
    """Is the subgraph induced on ``members`` strongly connected?"""
    sub = CompartmentalModel(
        n=model.n,
        edges=tuple(e for e in model.edges if e[0] in members and e[1] in members),
        inputs=model.inputs,
        outputs=model.outputs,
        leaks=model.leaks,
    )
    reach = dense_reachability(sub)
    return all(members <= (reach[v] | {v}) for v in members)


def exhaustive_isc(model: CompartmentalModel, start: int) -> bool:
    """Inductive strong connectivity by trying every vertex ordering."""
    rest = [v for v in model.vertices if v != start]
    for order in permutations(rest):
        seq = [start, *order]
        if all(oracle_induced_strongly_connected(model, set(seq[: k + 1])) for k in range(len(seq))):
            return True
    return False


def decomposes_over(exponent, basis_rows) -> bool:
    """Can ``exponent`` be written as a nonnegative-integer combination of
    ``basis_rows``?  Brute-force search with support pruning."""
    target = list(exponent)

    def search(t, rows):
        if all(x == 0 for x in t):
            return True
        if not rows:
            return False
        head, *rest = rows
        if all(h == 0 for h in head):
            return search(t, rest)
        max_mult = min((x // h for x, h in zip(t, head) if h), default=0)
        for mult in range(max_mult, -1, -1):
            nt = [x - mult * h for x, h in zip(t, head)]
            if all(x >= 0 for x in nt) and search(nt, rest):
                return True
        return False

    return search(target, list(basis_rows))


# -- exact census oracle ---------------------------------------------------


def _io11_jacobian(n: int, edges):
    """Jacobian of the full-leak, diagonal-generic coefficient map for
    In = Out = {1}, built with sympy polynomial rings only.

    The coefficients are the non-leading D-coefficients of det(DI - A) and of
    its (1,1) minor, with A[dst][src] = a_dst_src per edge and a generic
    a_ii on the diagonal.  Returns (polynomial domain, params, rows)."""
    names = ["D"] + [f"a{d}_{s}" for s, d in edges] + [f"a{v}_{v}" for v in range(1, n + 1)]
    R, d, *params = ring(names, ZZ)
    diag = params[len(edges):]
    M = [[R.zero] * n for _ in range(n)]
    for v in range(n):
        M[v][v] = d - diag[v]
    for (s, t), x in zip(edges, params):
        M[t - 1][s - 1] = -x
    K = R.to_domain()
    dets = [
        DomainMatrix(M, (n, n), K).det(),
        DomainMatrix([row[1:] for row in M[1:]], (n - 1, n - 1), K).det(),
    ]
    coeffs = []
    for poly in dets:
        by_power: dict[int, object] = {}
        for monom, c in poly.terms():
            by_power[monom[0]] = by_power.get(monom[0], R.zero) + R({(0,) + monom[1:]: c})
        top = max(by_power)
        coeffs.extend(by_power[k] for k in sorted(by_power) if k != top)
    rows = [[c.diff(x) for x in params] for c in coeffs]
    return K, params, rows


def _integer_value(poly, point) -> int:
    total = 0
    for monom, c in poly.terms():
        term = int(c)
        for v, e in zip(point, monom):
            if e:
                term *= v**e
        total += term
    return total


@lru_cache(maxsize=None)
def expdim_in1_out1_members(n: int, m: int, value_bound: int = 10**6):
    """Exact members of the census cell ``expdim_in1_out1`` at (n, m).

    Walks all labeled digraphs in lexicographic edge-slot order (the order
    that numbers census graphs) and keeps the strongly connected ones whose
    full-leak Jacobian over Q(params) has rank |E| + |In u Out| = m + 1.
    Returns ``(index, edges)`` pairs.

    A rank of m + 1 over Q at an integer point proves membership, since rank
    can only drop under specialisation.  A lower rank at the point proves
    nothing: such a graph is left out only when the symbolic rank over
    Q(params) is below m + 1.  The point (nonzero values in
    [-value_bound, value_bound]) therefore changes the cost, never the result.
    """
    slots = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    rng = random.Random(0)
    bound = m + 1
    members = []
    for idx, edges in enumerate(combinations(slots, m)):
        shell = CompartmentalModel(n, edges, frozenset({1}), frozenset({1}), frozenset())
        if not oracle_strongly_connected(shell):
            continue
        K, params, rows = _io11_jacobian(n, edges)
        # D does not occur in the rows, so its value in the point never matters.
        point = [0] + [rng.choice((-1, 1)) * rng.randint(1, value_bound) for _ in params]
        rank = fraction_rank([[_integer_value(q, point) for q in row] for row in rows])
        if rank < bound:
            symbolic = DomainMatrix(rows, (len(rows), len(params)), K)
            rank = symbolic.to_field().rank()
        if rank > bound:
            raise AssertionError(f"rank {rank} exceeds the bound {bound} on edges {edges}")
        if rank == bound:
            members.append((idx, edges))
    return tuple(members)


# -- labeled census ----------------------------------------------------------


def sioc_via_augmentation(n: int, edges, inputs, outputs) -> bool:
    """Strong-connectivity test of the graph augmented with output->input
    edges; equivalent to the definitional check when |In| = 1 or |Out| = 1.
    Two sweeps per call, independent of ``graphprops.closure``."""
    if len(inputs) != 1 and len(outputs) != 1:
        raise graphprops.PreconditionViolated(
            "augmentation shortcut needs a single input or a single output"
        )
    extra = tuple((j, i) for j in outputs for i in inputs if j != i)
    return strongly_connected_raw(n, tuple(edges) + extra)


def strongly_connected_raw(n: int, edges) -> bool:
    """Strong connectivity by two depth-first sweeps from vertex 1, over the
    edges and over the reversed edges, on adjacency lists; independent of
    ``graphprops``'s bitmask closure."""
    for pairs in (edges, [(d, s) for s, d in edges]):
        succ = {v: [] for v in range(1, n + 1)}
        for s, d in pairs:
            succ[s].append(d)
        seen, stack = {1}, [1]
        while stack:
            for d in succ[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        if len(seen) != n:
            return False
    return True


def enumerate_graphs(n: int, m: int, start: int = 0, stop: int | None = None):
    """Edge sets of all labeled digraphs (n, m) in lexicographic slot order,
    so that a graph's position is its labeled index; optionally only the
    positions in range(start, stop)."""
    if not 0 <= m <= n * (n - 1):
        raise ValueError(f"m={m} outside 0..{n * (n - 1)}")
    return islice(combinations(edge_slots(n), m), start, stop)


def _labeled_bits(n: int, edges, seeds, key, feas: dict[str, bool]) -> dict[str, bool]:
    """Classification bits of one labeled graph, its roles fixed at the labels
    1, 2 and 3; keys follow CELLS.  Each rank is the maximum over one point
    per seed of ``seeds``, drawn by the stream (seed, ``key``)."""
    m = len(edges)
    out = {name: False for name in CELLS}
    sc = strongly_connected_raw(n, edges)
    out["strongly_connected"] = sc
    if feas["sioc_in1_out2"]:
        out["sioc_in1_out2"] = sioc_via_augmentation(n, edges, (1,), (2,))
    if feas["sioc_in13_out2"]:
        out["sioc_in13_out2"] = sioc_via_augmentation(n, edges, (1, 3), (2,))
    # (cell, active?, cofactor positions, rank bound)
    configs = [
        ("expdim_in1_out1", feas["expdim_in1_out1"] and sc, ((1, 1),), m + 1),
        ("expdim_in1_out23", feas["expdim_in1_out23"] and sc, ((1, 2), (1, 3)), m + 3),
        ("expdim_in1_out2", feas["expdim_in1_out2"] and out["sioc_in1_out2"], ((1, 2),), m + 2),
        ("expdim_in13_out2", feas["expdim_in13_out2"] and out["sioc_in13_out2"], ((1, 2), (3, 2)), m + 3),
    ]
    active = [cfg for cfg in configs if cfg[1]]
    if not active:
        return out
    matrix = compartmental_matrix(make_model(n, edges, {1}, {1}, range(1, n + 1)), "diag")
    positions = list(dict.fromkeys(pos for cfg in active for pos in cfg[2]))
    polys = char_poly_coeffs(matrix.entries, matrix.table, positions)
    subsets = []
    for _, _, cfg_positions, bound in active:
        rows = list(range(n))
        for pos in cfg_positions:
            start = n + (n - 1) * positions.index(pos)
            rows += range(start, start + n - 1)
        subsets.append(rows)
    per_seed = [expanded_ranks(polys, matrix.table, seed, key, subsets) for seed in seeds]
    ranks = [max(r) for r in zip(*per_seed)]
    for (name, _, _, bound), rank in zip(active, ranks):
        assert rank <= bound, (name, rank, bound, edges)
        out[name] = rank == bound
    return out


@lru_cache(maxsize=None)
def _relabelings(n: int):
    """Every permutation p of 1..n (as a tuple with p[0] = 0) with, per edge
    slot k, the edge-mask bit of the slot that p moves slot k to."""
    slots = edge_slots(n)
    slot_of = {e: k for k, e in enumerate(slots)}
    out = []
    for images in permutations(range(1, n + 1)):
        p = (0,) + images
        out.append((p, tuple(1 << slot_of[p[i], p[j]] for i, j in slots)))
    return tuple(out)


def automorphisms(n: int, slot_ids):
    """Aut(G) of the graph G with edges in the slots ``slot_ids`` when G's
    edge mask (bit k for slot k of ``edge_slots(n)``) is the least of its
    S_n orbit; None otherwise, usually after a few permutations."""
    mask = sum(1 << k for k in slot_ids)
    aut = []
    for p, bits in _relabelings(n):
        image = sum([bits[k] for k in slot_ids])
        if image < mask:
            return None
        if image == mask:
            aut.append(p)
    return aut


def labeled_representatives(n: int, m: int):
    """(index, edges, Aut) of every labeled graph at (n, m) that is the least
    of its isomorphism class, found by testing each labeled graph in turn."""
    slot_of = {e: k for k, e in enumerate(edge_slots(n))}
    out = []
    for idx, edges in enumerate(enumerate_graphs(n, m)):
        aut = automorphisms(n, [slot_of[e] for e in edges])
        if aut is not None:
            out.append((idx, edges, aut))
    return out


@lru_cache(maxsize=None)
def labeled_census(n: int, m: int, seed: int = 0) -> dict[str, tuple[int, ...] | None]:
    """The member graph indices of each census cell at (n, m) (None for NA),
    found graph by graph over every labeled digraph.

    This is the reference for the census's isomorphism-class reduction: no
    relabeling, automorphism or orbit weight is involved.  Each graph is
    ranked at one point per seed s, s + 1 and s + 2, so mod each of the three
    primes, and keeps the largest rank; the point of seed t is drawn by the
    stream (t, n, m, graph index).
    """
    feas = row_feasibility(n, m)
    members: dict[str, list[int]] = {name: [] for name in CELLS}
    for idx, edges in enumerate(enumerate_graphs(n, m)):
        key = ("census", f"{n}:{m}:{idx}")
        for name, bit in _labeled_bits(n, edges, (seed, seed + 1, seed + 2), key, feas).items():
            if bit:
                members[name].append(idx)
    return {name: tuple(members[name]) if feas[name] else None for name in CELLS}


# -- census evidence ---------------------------------------------------------
#
# Not independent: these expand the census's own class verdicts to labeled
# graphs, so that a disputed cell can be listed graph by graph and compared
# with the oracles above.


def cell_members(n: int, m: int, cell: str, seed: int = 0):
    """Labeled graph indices (and edge sets) that the census counts in one
    cell, in index order.

    Relabeling a class representative G by p gives the labeled graph p(G),
    whose role tuple (1..k) is p^-1(1..k) in G; p(G) is a member when that
    tuple lies in a member orbit of G.
    """
    return sorted(_members_by_seed(n, m, cell, (seed,))[seed].items())


def _members_by_seed(n: int, m: int, cell: str, seeds) -> dict:
    """Per seed, the members of ``cell`` as {labeled index: edges}, from one
    generation of the row's classes; each class draws from the census's own
    stream, keyed by (seed, n, m, index of its representative)."""
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    census.check_row(n, m)
    slots = edge_slots(n)
    slot_of = {e: k for k, e in enumerate(slots)}
    # an expdim cell with an output 2 ranks only the tuples of its sioc cell
    wanted = (cell, {"expdim_in1_out2": "sioc_in1_out2", "expdim_in13_out2": "sioc_in13_out2"}.get(cell))
    feas = {name: ok and name in wanted for name, ok in row_feasibility(n, m).items()}
    classes = census.representatives(n, m)
    by_seed = {}
    for seed in seeds:
        members = {}
        for idx, edges, aut in classes:
            held = census._evaluate_class(n, edges, aut, seed, ("census", f"{n}:{m}:{idx}"), feas)[cell]
            if not held:
                continue
            k = len(next(iter(held)))
            tuples = {tuple(p[v] for v in t) for t in held for p in aut}
            for p in census._permutations(n):
                inverse = sorted(range(n + 1), key=p.__getitem__)
                if tuple(inverse[1 : k + 1]) in tuples:
                    image = tuple(sorted((p[i], p[j]) for i, j in edges))
                    members[census._graph_index([slot_of[e] for e in image], len(slots))] = image
        by_seed[seed] = members
    return by_seed


def discrepancy_report(
    n: int,
    m: int,
    cell: str,
    expected: int,
    seeds=(0, 1, 2),
    sample: int = 50,
) -> dict:
    """Evidence bundle for a cell that disagrees with a reference count.

    Re-counts the cell under several independent seeds and lists sample member
    graphs with their per-seed membership, so a stable disagreement can be
    distinguished from a random-evaluation artifact.
    """
    if not seeds:
        raise ValueError("discrepancy_report needs at least one seed")
    per_seed_members = _members_by_seed(n, m, cell, seeds)
    union = sorted(set().union(*per_seed_members.values()))
    unstable = [idx for idx in union if not all(idx in per_seed_members[s] for s in seeds)]
    base = per_seed_members[seeds[0]]
    return {
        "n": n,
        "m": m,
        "cell": cell,
        "expected": expected,
        "counts_by_seed": {str(s): len(per_seed_members[s]) for s in seeds},
        "stable_across_seeds": not unstable,
        "seed_unstable_graphs": unstable,
        "sample_members": [
            {"index": idx, "edges": [list(e) for e in base[idx]]} for idx in sorted(base)[:sample]
        ],
    }


# -- derivatives by sympy ----------------------------------------------------


def sympy_poly(poly: SparsePoly):
    """``poly`` in a sympy ring with one generator per table slot (D last);
    returns the element and the generators."""
    R, *gens = ring([f"x{i}" for i in range(len(poly.table.params))] + ["D"], ZZ)
    return R(dict(poly.terms)), gens


def sympy_partial(poly: SparsePoly, idx: int):
    """The derivative of ``poly`` by the parameter in slot ``idx``, taken by sympy."""
    element, gens = sympy_poly(poly)
    return element.diff(gens[idx])


def sympy_gradient_mod_p(poly: SparsePoly, values, p: int) -> list[int]:
    """The gradient of a D-free ``poly`` at ``values`` mod p: sympy
    differentiates, and each derivative is valued exactly before reduction."""
    element, gens = sympy_poly(poly)
    point = tuple(values) + (0,)
    return [_integer_value(element.diff(x), point) % p for x in gens[:-1]]
