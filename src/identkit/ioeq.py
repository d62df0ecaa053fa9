"""Input-output equations and the coefficient map.

For output j, the equation is  det(D*I - A_H) y_j = sum_i cof_ij(D) u_i,
where A_H is the submatrix of the compartmental matrix on the vertices that
reach j, and cof_ij is the signed (i,j) minor of D*I - A_H.  Row/column
positions (and hence minor signs) are taken inside A_H after relabeling, not
from the original vertex labels.  One ``char_poly_coeffs`` call per output
gives the left-hand side and every input's cofactor from one expansion.
The expansion serves printed equations and test oracles; ``identcore``
ranks the map at a point without it.

Note that A_H is the submatrix of the full matrix A: in explicit mode the
diagonal keeps outflow terms for edges that leave the subgraph, since those
flows still drain the retained compartments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import graphprops
from .model import (
    MODE_EXPLICIT,
    CompartmentalModel,
    Param,
    compartmental_matrix,
    normalize_mode,
)
from .sympoly import SparsePoly, VarTable, char_poly_coeffs


class NoInputReachesOutput(ValueError):
    pass


@dataclass(frozen=True)
class IOEquation:
    """One output's equation; coefficient lists run from the highest
    derivative order (d-1) down to order 0, zero entries retained.

    ``lhs`` omits the monic leading y^(d) coefficient.  Each rhs list has
    length d; for an input equal to the output the order-(d-1) entry is the
    constant 1 (monic).
    """

    output: int
    order: int  # d = size of the output-reachable subgraph
    lhs: tuple[SparsePoly, ...]
    rhs: tuple[tuple[int, tuple[SparsePoly, ...]], ...]  # (input, coeffs), inputs ascending
    table: VarTable


@dataclass(frozen=True)
class CoefficientMap:
    """All distinct nonzero, non-monic coefficients of all equations.

    Canonical order: outputs ascending; per output the left-hand side by
    descending derivative order, then the right-hand side inputs ascending,
    each by descending order.  A coefficient polynomial that already appeared
    (the shared left-hand side of several equations, when the reachable
    subgraph is the whole graph) is listed once, at its first position.
    """

    polys: tuple[SparsePoly, ...]
    param_order: tuple[Param, ...]
    table: VarTable
    minimality_warning: bool

    def __len__(self) -> int:
        return len(self.polys)


def io_equation(model: CompartmentalModel, j: int, mode: str = MODE_EXPLICIT) -> IOEquation:
    """The input-output equation for output j.

    Requires a directed path from at least one input to j.
    """
    mode = normalize_mode(mode)
    if j not in model.outputs:
        raise graphprops.PreconditionViolated(f"vertex {j} is not an output")
    keep = sorted(graphprops.output_reachable_set(model, j))
    live_inputs = sorted(set(keep) & model.inputs)
    if not live_inputs:
        raise NoInputReachesOutput(f"no input has a directed path to output {j}")
    table = model.vartable(mode)
    full = compartmental_matrix(model, mode, table)
    entries = [[full.entry(u, v) for v in keep] for u in keep]
    d = len(keep)
    pos = {v: idx + 1 for idx, v in enumerate(keep)}
    # the d char-poly coefficients, then d - 1 per input's cofactor (i, j)
    coeffs = char_poly_coeffs(entries, table, [(pos[i], pos[j]) for i in live_inputs])
    rhs: list[tuple[int, tuple[SparsePoly, ...]]] = []
    for k, i in enumerate(live_inputs):
        start = d + k * (d - 1)
        head = SparsePoly.const(table, 1 if i == j else 0)
        rhs.append((i, (head, *coeffs[start : start + d - 1])))
    return IOEquation(output=j, order=d, lhs=tuple(coeffs[:d]), rhs=tuple(rhs), table=table)


def coefficient_map(model: CompartmentalModel, mode: str = MODE_EXPLICIT) -> CoefficientMap:
    mode = normalize_mode(mode)
    table = model.vartable(mode)
    polys: dict[SparsePoly, None] = {}  # insertion-ordered set
    for j in sorted(model.outputs):
        eq = io_equation(model, j, mode)
        # each input's list starts with 0, or with the monic 1 of u_j
        for poly in chain(eq.lhs, *(coeffs[1:] for _, coeffs in eq.rhs)):
            if not poly.is_zero():
                polys.setdefault(poly)
    return CoefficientMap(
        polys=tuple(polys),
        param_order=tuple(model.params(mode)),
        table=table,
        minimality_warning=minimality_warning(model),
    )


def minimality_warning(model: CompartmentalModel) -> bool:
    """Several outputs, and equations not known to be minimal."""
    return len(model.outputs) > 1 and not (graphprops.is_strongly_connected(model) and model.leaks)


def coefficient_count(n: int, dists, shared: int = 0) -> int:
    """The paper's expected number of nonzero coefficients (the edge formula):
    n, plus n - d per other input or output at distance ``dists`` d from the
    single one, plus n - 1 per compartment that is both input and output."""
    return n + sum(n - d for d in dists) + shared * (n - 1)


def expected_coefficient_count(model: CompartmentalModel) -> int | None:
    """``coefficient_count`` of the model, or None when the formula's
    hypotheses (single input or output, the right connectability, leaks on
    every input/output compartment) do not hold."""
    if not model.in_union_out <= model.leaks:
        return None
    if len(model.outputs) == 1 and graphprops.is_output_connectable(model):
        (j,) = model.outputs
        others = sorted(model.inputs - model.outputs)
        dists = [graphprops.dist(model, i, j) for i in others]
    elif len(model.inputs) == 1 and graphprops.is_output_connectable_to_every_output(model):
        (i,) = model.inputs
        others = sorted(model.outputs - model.inputs)
        dists = [graphprops.dist(model, i, j) for j in others]
    else:
        return None
    if any(not isinstance(d, int) for d in dists):
        return None
    return coefficient_count(model.n, dists, len(model.inputs & model.outputs))


# -- rendering ------------------------------------------------------------


def _term(sym: str, order: int) -> str:
    if order == 0:
        return sym
    if order <= 3:
        return sym + "'" * order
    return f"{sym}^({order})"


def render_io_equation(eq: IOEquation) -> str:
    """Equation as readable text, e.g. ``y2'' + (a01)*y2' = (a21)*u1``."""
    d = eq.order
    y = f"y{eq.output}"
    left = [_term(y, d)]
    for k, poly in enumerate(eq.lhs):
        if poly.is_zero():
            continue
        left.append(f"({poly})*{_term(y, d - 1 - k)}")
    right = []
    for i, coeffs in eq.rhs:
        u = f"u{i}"
        for k, poly in enumerate(coeffs):
            if poly.is_zero():
                continue
            order = d - 1 - k
            if poly.is_one():
                right.append(_term(u, order))
            else:
                right.append(f"({poly})*{_term(u, order)}")
    rhs_text = " + ".join(right) if right else "0"
    return " + ".join(left) + " = " + rhs_text
