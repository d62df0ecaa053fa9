"""Graph-structural predicates for compartmental models.

All reachability work is done on integer bitmasks (bit v-1 stands for vertex
v), which keeps the per-graph cost low enough for exhaustive censuses.  One
breadth-first search per vertex (``closure``) gives every distance and every
reach mask of a graph; strong connectivity, strong input-output
connectivity (``sioc``), output connectability and dist(i, j) are read from
it, by a model from its memoized ``CompartmentalModel.closure``, and by the
census per class.  Inductive strong connectivity grows one vertex set from
its start, in O(n^2) mask operations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import CompartmentalModel

DEFAULT_CAP = 100_000  # cycles or paths a ``cyclespace`` enumeration lists before CapExceeded


class CapExceeded(RuntimeError):
    """A cycle or path enumeration (``cyclespace``) grew past its cap."""


class PreconditionViolated(ValueError):
    pass


# -- bitmask primitives (plain n/edges arguments, shared with the census) ----


def out_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for s, d in edges:
        masks[s - 1] |= 1 << (d - 1)
    return masks


class Closure(NamedTuple):
    """Reachability of a graph on vertices 1..n, per vertex v at entry v-1."""

    reach: list[int]  # the mask of the vertices v reaches, v included
    common: int  # the vertices every vertex reaches: all when strongly connected
    dist: list[list[int | float]]  # per u, the length of a shortest path v -> u; math.inf if none


def closure(n: int, edges) -> Closure:
    """One breadth-first search per vertex."""
    masks = out_masks(n, edges)
    reach, dist = [], []
    common = (1 << n) - 1
    for v in range(n):
        row: list[int | float] = [math.inf] * n
        seen = frontier = 1 << v
        steps = 0
        while frontier:
            new = 0
            while frontier:
                low = frontier & (-frontier)
                u = low.bit_length() - 1
                row[u] = steps
                new |= masks[u]
                frontier ^= low
            frontier = new & ~seen
            seen |= new
            steps += 1
        reach.append(seen)
        dist.append(row)
        common &= seen
    return Closure(reach, common, dist)


def _reaches_outputs(graph: Closure, outputs) -> bool:
    """Does every vertex reach one of ``outputs``?"""
    if len(outputs) == 1:
        (o,) = outputs
        return graph.common >> (o - 1) & 1 == 1
    out = sum(1 << (o - 1) for o in outputs)
    return all(r & out for r in graph.reach)


def sioc(graph: Closure, inputs, outputs) -> bool:
    """Is the graph strongly input-output connected for ``inputs`` and
    ``outputs``: connected, and every edge on a simple directed cycle or on
    a simple directed path from an input to an output?

    Decided as: every vertex reaches an output, the inputs reach every
    vertex, and the graph is weakly connected, which the first two imply
    when there is one input or one output.  These suffice: for an edge
    u -> v take shortest paths P from an input to u and Q from v to an
    output; if P and Q are disjoint, P, uv, Q is a simple input-output path;
    otherwise v reaches u through a shared vertex, and uv with a shortest
    path from v to u is a simple cycle.  They are necessary: with the edges
    output -> input added, every edge lies on a cycle, so the connected
    augmented graph is strongly connected, and cutting its paths at the
    added edges gives both reachabilities in the graph.
    """
    if not _reaches_outputs(graph, outputs):
        return False
    reach = graph.reach
    full = (1 << len(reach)) - 1
    acc = 0
    for i in inputs:
        acc |= reach[i - 1]
    if acc != full:
        return False
    if len(inputs) == 1 or len(outputs) == 1:
        return True
    # the weak component of vertex 1: every reach mask that meets it lies in it
    comp, grown = reach[0], True
    while grown:
        grown = False
        for r in reach:
            if r & comp and r & ~comp:
                comp |= r
                grown = True
    return comp == full


# -- predicates on models: reads of the model's closure ---------------------


def is_strongly_connected(model: CompartmentalModel) -> bool:
    return model.closure.common == (1 << model.n) - 1


def output_reachable_set(model: CompartmentalModel, j: int) -> frozenset[int]:
    """Vertices with a directed path to output j (j itself included)."""
    if j not in model.outputs:
        raise PreconditionViolated(f"vertex {j} is not an output")
    return frozenset(v for v, r in enumerate(model.closure.reach, 1) if r >> (j - 1) & 1)


def is_output_connectable(model: CompartmentalModel) -> bool:
    """Every compartment has a directed path to some output."""
    return _reaches_outputs(model.closure, model.outputs)


def is_output_connectable_to_every_output(model: CompartmentalModel) -> bool:
    return all(model.closure.common >> (o - 1) & 1 for o in model.outputs)


def dist(model: CompartmentalModel, i: int, j: int) -> int | float:
    """Length of the shortest directed path i -> j; math.inf if unreachable."""
    return model.closure.dist[i - 1][j - 1]


def is_strongly_input_output_connected(model: CompartmentalModel) -> bool:
    return sioc(model.closure, model.inputs, model.outputs)


def _inductive_order(n: int, edges, start: int) -> tuple[int, ...] | None:
    """Grow {start} by the lowest-numbered vertex with an edge from and an
    edge to the set; the order of growth, or None if it stalls short of n."""
    outs = out_masks(n, edges)
    ins = [0] * n
    for s, d in edges:
        ins[d - 1] |= 1 << (s - 1)
    member, order = 1 << (start - 1), [start]
    while len(order) < n:
        v = next(
            (v for v in range(n) if not member >> v & 1 and ins[v] & member and outs[v] & member),
            None,
        )
        if v is None:
            return None
        member |= 1 << v
        order.append(v + 1)
    return tuple(order)


def is_inductively_strongly_connected(
    model: CompartmentalModel, start: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Does some vertex ordering starting at ``start`` keep every
    prefix-induced subgraph strongly connected?  Returns the verdict and,
    when it holds, the ordering that adds the lowest-numbered addable vertex
    first.

    Lemma: for a strongly connected set S and a vertex v outside it,
    S + {v} is strongly connected exactly when v has an edge from S and an
    edge to S.  Growing S only makes more vertices addable, so the greedy
    growth never stalls while a valid ordering exists: the first vertex of
    that ordering outside a stalled S would be addable.
    """
    if not 1 <= start <= model.n:
        raise PreconditionViolated(f"start vertex {start} outside 1..{model.n}")
    order = _inductive_order(model.n, model.edges, start)
    return order is not None, order


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
    edges = model.edges + ((j, i),)
    return any(_inductive_order(model.n, edges, anchor) for anchor in (i, j))
