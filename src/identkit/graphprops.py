"""Graph-structural predicates for compartmental models.

All reachability work is done on integer bitmasks (bit v-1 stands for vertex
v), which keeps the per-graph cost low enough for exhaustive censuses.
Strong connectivity, strong input-output connectivity and output
connectability each take one to three reachability sweeps; only the
inductive strong connectivity search is exponential in n.
"""

from __future__ import annotations

import math

from .model import CompartmentalModel, make_model


class CapExceeded(RuntimeError):
    """An enumeration or search grew past its configured cap."""


class PreconditionViolated(ValueError):
    pass


# -- bitmask primitives (plain n/edges arguments, shared with the census) ----


def out_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for s, d in edges:
        masks[s - 1] |= 1 << (d - 1)
    return masks


def in_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for s, d in edges:
        masks[d - 1] |= 1 << (s - 1)
    return masks


def reachable_from(masks: list[int], start_mask: int) -> int:
    """All vertices reachable from the seed set (seed included)."""
    acc = start_mask
    frontier = start_mask
    while frontier:
        new = 0
        rest = frontier
        while rest:
            low = rest & (-rest)
            new |= masks[low.bit_length() - 1]
            rest ^= low
        frontier = new & ~acc
        acc |= new
    return acc


def distances(masks: list[int], v: int) -> list[int | float]:
    """Per vertex u (entry u-1), the length of the shortest directed path
    v -> u: 0 for v itself, math.inf when u is unreachable."""
    out: list[int | float] = [math.inf] * len(masks)
    seen = frontier = 1 << (v - 1)
    steps = 0
    while frontier:
        new = 0
        while frontier:
            low = frontier & (-frontier)
            u = low.bit_length() - 1
            out[u] = steps
            new |= masks[u]
            frontier ^= low
        frontier = new & ~seen
        seen |= new
        steps += 1
    return out


def strongly_connected_raw(n: int, edges) -> bool:
    return induced_strongly_connected(out_masks(n, edges), (1 << n) - 1)


def weakly_connected_raw(n: int, edges) -> bool:
    sym = [0] * n
    for s, d in edges:
        sym[s - 1] |= 1 << (d - 1)
        sym[d - 1] |= 1 << (s - 1)
    return reachable_from(sym, 1) == (1 << n) - 1


def induced_strongly_connected(masks: list[int], member_mask: int) -> bool:
    """Is the induced subgraph on ``member_mask`` strongly connected?"""
    if member_mask.bit_count() <= 1:
        return True
    start = member_mask & (-member_mask)
    restricted = [
        out & member_mask if member_mask >> v & 1 else 0 for v, out in enumerate(masks)
    ]
    if reachable_from(restricted, start) != member_mask:
        return False
    back = [0] * len(masks)
    for v, outs in enumerate(restricted):
        while outs:
            low = outs & (-outs)
            back[low.bit_length() - 1] |= 1 << v
            outs ^= low
    return reachable_from(back, start) == member_mask


# -- predicates on models -------------------------------------------------


def is_strongly_connected(model: CompartmentalModel) -> bool:
    return strongly_connected_raw(model.n, model.edges)


def output_reachable_set(model: CompartmentalModel, j: int) -> frozenset[int]:
    """Vertices with a directed path to output j (j itself included)."""
    if j not in model.outputs:
        raise PreconditionViolated(f"vertex {j} is not an output")
    bwd = in_masks(model.n, model.edges)
    mask = reachable_from(bwd, 1 << (j - 1))
    return frozenset(b + 1 for b in range(model.n) if mask >> b & 1)


def is_output_connectable(model: CompartmentalModel) -> bool:
    """Every compartment has a directed path to some output."""
    bwd = in_masks(model.n, model.edges)
    seed = 0
    for j in model.outputs:
        seed |= 1 << (j - 1)
    return reachable_from(bwd, seed) == (1 << model.n) - 1


def is_output_connectable_to_every_output(model: CompartmentalModel) -> bool:
    bwd = in_masks(model.n, model.edges)
    full = (1 << model.n) - 1
    return all(reachable_from(bwd, 1 << (j - 1)) == full for j in model.outputs)


def dist(model: CompartmentalModel, i: int, j: int) -> int | float:
    """Length of the shortest directed path i -> j; math.inf if unreachable."""
    return distances(out_masks(model.n, model.edges), i)[j - 1]


def is_strongly_input_output_connected(model: CompartmentalModel) -> bool:
    """Connected, and every edge lies on a simple directed cycle or on a
    simple directed path from an input to an output.

    Decided as: the graph is weakly connected, the inputs reach every
    compartment, and every compartment reaches an output.  These suffice:
    for an edge u -> v take shortest paths P from an input to u and Q from v
    to an output; if P and Q are disjoint, P, uv, Q is a simple input-output
    path; otherwise v reaches u through a shared vertex, and uv with a
    shortest path from v to u is a simple cycle.  They are necessary: with
    the edges output -> input added, every edge lies on a cycle, so the
    connected augmented graph is strongly connected, and cutting its paths
    at the added edges gives both reachabilities in the graph.
    """
    n, edges = model.n, model.edges
    seed = 0
    for i in model.inputs:
        seed |= 1 << (i - 1)
    return (
        weakly_connected_raw(n, edges)
        and reachable_from(out_masks(n, edges), seed) == (1 << n) - 1
        and is_output_connectable(model)
    )


def is_inductively_strongly_connected(
    model: CompartmentalModel, start: int, node_cap: int = 500_000
) -> tuple[bool, tuple[int, ...] | None]:
    """Does some vertex ordering starting at ``start`` keep every
    prefix-induced subgraph strongly connected?

    Explores prefix vertex-sets breadth-first (the SC property of a prefix
    depends only on the set, not the order), so at most 2^n states are
    visited; ``node_cap`` bounds the state count for larger graphs.
    """
    n = model.n
    if not 1 <= start <= n:
        raise PreconditionViolated(f"start vertex {start} outside 1..{n}")
    masks = out_masks(n, model.edges)
    full = (1 << n) - 1
    start_mask = 1 << (start - 1)
    parents: dict[int, tuple[int, int]] = {}
    level = {start_mask}
    visited = {start_mask}
    while level:
        if full in visited:
            break
        next_level: set[int] = set()
        for state in level:
            for v in range(n):
                bit = 1 << v
                if state & bit:
                    continue
                new = state | bit
                if new in visited:
                    continue
                if induced_strongly_connected(masks, new):
                    visited.add(new)
                    parents[new] = (state, v + 1)
                    next_level.add(new)
                    if len(visited) > node_cap:
                        raise CapExceeded(f"inductive-SC search exceeded {node_cap} states")
        level = next_level
    if full not in visited:
        return False, None
    order = []
    state = full
    while state != start_mask:
        state, v = parents[state]
        order.append(v)
    order.append(start)
    return True, tuple(reversed(order))


def satisfies_almost_isc(model: CompartmentalModel) -> bool:
    """Graph-only sufficient condition for the path/cycle certificate: single
    input i and output j, strongly input-output connected, exactly
    2|V|-(dist(i,j)+2) edges, no return path j -> i, and inductively strongly
    connected (started at i or at j) once the edge j -> i is added."""
    if len(model.inputs) != 1 or len(model.outputs) != 1:
        raise PreconditionViolated("requires a single input and a single output")
    (i,) = model.inputs
    (j,) = model.outputs
    if i == j:
        raise PreconditionViolated("requires distinct input and output compartments")
    if not is_strongly_input_output_connected(model):
        return False
    d = dist(model, i, j)
    if not isinstance(d, int) or len(model.edges) != 2 * model.n - (d + 2):
        return False
    if dist(model, j, i) != math.inf:
        return False
    augmented = make_model(
        model.n,
        tuple(model.edges) + ((j, i),),
        model.inputs,
        model.outputs,
        model.leaks,
    )
    for anchor in (i, j):
        ok, _ = is_inductively_strongly_connected(augmented, anchor)
        if ok:
            return True
    return False
