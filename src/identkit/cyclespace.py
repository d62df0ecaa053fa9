"""Path/cycle monomials of a model and the rank of their exponent family.

The monomial of a simple directed cycle is the product of its edge rates; a
self-cycle is a diagonal parameter a_ii; the monomial of a simple input ->
output path is the product of its edge rates.  Stacking the 0/1 exponent
vectors of all three families (columns: edge parameters then diagonal
parameters, in canonical order) gives an integer matrix whose exact rank is
the number of independent paths and cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphprops import DEFAULT_CAP, CapExceeded
from .model import CompartmentalModel, ModelError, Param


def _closing_walks(adj: dict[int, list[int]], path: list[int], target: int, allowed):
    """Every extension of the simple path ``path`` that ends on an edge into
    ``target``, passing only through vertices in ``allowed``."""
    for w in adj[path[-1]]:
        if w == target:
            yield path + [w]
        elif w in allowed and w not in path:
            path.append(w)
            yield from _closing_walks(adj, path, target, allowed)
            path.pop()


def _walk_edges(model: CompartmentalModel, starts, cap: int, what: str):
    """The closing walks of every (start, target, allowed) in ``starts`` as
    edge tuples, sorted by (length, vertex sequence); at most ``cap`` of them."""
    if cap < 0:
        raise ModelError(f"cap must be at least 0, got {cap}")
    adj = {v: model.out_neighbors(v) for v in model.vertices}
    out = []
    for start, target, allowed in starts:
        for nodes in _closing_walks(adj, [start], target, allowed):
            out.append(tuple(zip(nodes, nodes[1:])))
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} {what}")
    out.sort(key=lambda c: (len(c), c))
    return out


def enumerate_simple_cycles(
    model: CompartmentalModel, cap: int = DEFAULT_CAP
) -> list[tuple[tuple[int, int], ...]]:
    """All simple directed cycles (length >= 2) as edge tuples starting at
    their smallest vertex, sorted by (length, vertex sequence).  Self-cycles
    are handled separately."""
    starts = [(root, root, range(root + 1, model.n + 1)) for root in model.vertices]
    return _walk_edges(model, starts, cap, "simple cycles")


def enumerate_io_paths(
    model: CompartmentalModel, cap: int = DEFAULT_CAP
) -> list[tuple[tuple[int, int], ...]]:
    """All simple directed paths from an input to an output (length >= 1) as
    edge tuples, sorted by (length, vertex sequence).  The length-0 path at a
    vertex that is both input and output is never emitted."""
    starts = [
        (i, j, model.vertices) for i in sorted(model.inputs) for j in sorted(model.outputs) if i != j
    ]
    return _walk_edges(model, starts, cap, "input-output paths")


@dataclass(frozen=True)
class PathCycleBasis:
    """Monomial families and their exponent-vector rank data.

    ``columns`` lists the edge parameters then the diagonal parameters;
    ``exponent_matrix`` has one 0/1 row per monomial in the order
    self-cycles, cycles, io_paths.
    """

    self_cycles: tuple[Param, ...]
    cycles: tuple[tuple[tuple[int, int], ...], ...]
    io_paths: tuple[tuple[tuple[int, int], ...], ...]
    columns: tuple[Param, ...]
    exponent_matrix: tuple[tuple[int, ...], ...]
    independent_count: int

    def monomial_strings(self) -> list[str]:
        out = [str(p) for p in self.self_cycles]
        for fam in (self.cycles, self.io_paths):
            for item in fam:
                out.append("*".join(str(Param.edge(s, d)) for s, d in sorted(item)))
        return out


def int_matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (pivot * m[r][c] - m[r][col] * m[row][c]) // prev_pivot
            m[r][col] = 0
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _exponent_row(columns_index: dict[Param, int], width: int, params) -> tuple[int, ...]:
    row = [0] * width
    for p in params:
        row[columns_index[p]] = 1
    return tuple(row)


def path_cycle_basis(model: CompartmentalModel, cap: int = DEFAULT_CAP) -> PathCycleBasis:
    """Enumerate all three monomial families and compute their rank.

    The self-cycle block assumes a leak in every compartment (all |V|
    diagonal parameters are present)."""
    cycles = enumerate_simple_cycles(model, cap)
    paths = enumerate_io_paths(model, cap)
    self_cycles = tuple(Param.diag(v) for v in model.vertices)
    columns = tuple(model.edge_params()) + self_cycles
    index = {p: k for k, p in enumerate(columns)}
    width = len(columns)
    rows: list[tuple[int, ...]] = []
    for p in self_cycles:
        rows.append(_exponent_row(index, width, [p]))
    for cyc in cycles:
        rows.append(_exponent_row(index, width, (Param.edge(s, d) for s, d in cyc)))
    for path in paths:
        rows.append(_exponent_row(index, width, (Param.edge(s, d) for s, d in path)))
    rank = int_matrix_rank([list(r) for r in rows])
    return PathCycleBasis(
        self_cycles=self_cycles,
        cycles=tuple(cycles),
        io_paths=tuple(paths),
        columns=columns,
        exponent_matrix=tuple(rows),
        independent_count=rank,
    )


def path_cycle_rank(model: CompartmentalModel, cap: int = DEFAULT_CAP) -> tuple[int, PathCycleBasis]:
    basis = path_cycle_basis(model, cap)
    return basis.independent_count, basis


def incidence_matrix(model: CompartmentalModel) -> list[list[int]]:
    """Rows of the |V| x |E| incidence matrix: the column of the model's
    edge (j, k), in canonical (src, dst) order, has +1 at row j and -1 at row k."""
    rows = [[0] * len(model.edges) for _ in range(model.n)]
    for col, (src, dst) in enumerate(model.edges):
        rows[src - 1][col] = 1
        rows[dst - 1][col] = -1
    return rows


def incidence_rank(model: CompartmentalModel) -> int:
    return int_matrix_rank(incidence_matrix(model))
