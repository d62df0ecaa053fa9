"""Linear compartmental models and their symbolic compartmental matrices.

A model is the quadruple (G, In, Out, Leak): a simple directed graph on
vertices 1..n together with nonempty input and output vertex sets and a
(possibly empty) leak set.

Parameter conventions (the most error-prone point of the whole domain):

* the edge stored as ``(src, dst)`` means flow src -> dst and carries the
  rate parameter ``a[dst][src]`` -- subscripts are (to, from);
* leak at vertex i carries ``a[0][i]``;
* mode ``explicit`` puts -a_0i - (sum of outflows) on the diagonal; in
  mode ``diag`` (diagonal-generic) every diagonal entry is an independent
  parameter ``a[i][i]`` (only legal when every compartment leaks, where the
  substitution a_ii = -a_0i - sum of outflows is a bijection).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .sympoly import SparsePoly, VarTable

# Models have at most this many compartments.  Rank analysis is polynomial in
# n, but printed input-output equations (``identkit ioeq``) expand determinants
# and are exponential; the cap keeps a malformed file from a huge n x n matrix.
MAX_VERTICES = 64

MODE_EXPLICIT = "explicit"
MODE_DIAG = "diag"


class ModelError(ValueError):
    """Base class for model validation and construction errors."""


class DuplicateEdge(ModelError):
    pass


class SelfLoop(ModelError):
    pass


class VertexOutOfRange(ModelError):
    pass


class EmptyInputSet(ModelError):
    pass


class EmptyOutputSet(ModelError):
    pass


class ModeRequiresFullLeaks(ModelError):
    pass


class BadModelFile(ModelError):
    pass


@dataclass(frozen=True, order=True)
class Param:
    """A named model parameter: edge rate a_ij, leak rate a_0i, or diagonal a_ii."""

    kind: str  # "edge" | "leak" | "diag"
    i: int
    j: int

    @staticmethod
    def edge(src: int, dst: int) -> "Param":
        return Param("edge", dst, src)

    @staticmethod
    def leak(v: int) -> "Param":
        return Param("leak", 0, v)

    @staticmethod
    def diag(v: int) -> "Param":
        return Param("diag", v, v)

    def __str__(self) -> str:
        if self.i < 10 and self.j < 10:
            return f"a{self.i}{self.j}"
        return f"a{self.i}_{self.j}"


@dataclass(frozen=True)
class CompartmentalModel:
    """Validated model (G, In, Out, Leak); immutable once constructed.

    ``edges`` is canonically sorted by (src, dst).  All vertex labels are
    1-based, matching the usual presentation of these models.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    inputs: frozenset[int]
    outputs: frozenset[int]
    leaks: frozenset[int]

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def in_union_out(self) -> frozenset[int]:
        return self.inputs | self.outputs

    @cached_property
    def closure(self):
        """The reachability closure of the graph (``graphprops.closure``),
        built on first use; every graph predicate reads it."""
        from .graphprops import closure  # graphprops imports this module

        return closure(self.n, self.edges)

    def out_neighbors(self, v: int) -> list[int]:
        return [d for s, d in self.edges if s == v]

    def with_leaks(self, leaks: Iterable[int]) -> "CompartmentalModel":
        return validate(CompartmentalModel(self.n, self.edges, self.inputs, self.outputs, frozenset(leaks)))

    # -- parameters -----------------------------------------------------

    def edge_params(self) -> list[Param]:
        """Edge parameters in canonical variable order: sorted by (dst, src)."""
        return sorted(Param.edge(s, d) for s, d in self.edges)

    def params(self, mode: str) -> list[Param]:
        """Model parameters in the fixed global order for the given mode."""
        mode = normalize_mode(mode)
        out = self.edge_params()
        if mode == MODE_EXPLICIT:
            out.extend(Param.leak(v) for v in sorted(self.leaks))
        else:
            out.extend(Param.diag(v) for v in self.vertices)
        return out

    def vartable(self, mode: str) -> VarTable:
        return VarTable(tuple(self.params(mode)))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "in": sorted(self.inputs),
            "out": sorted(self.outputs),
            "leak": sorted(self.leaks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def normalize_mode(mode: str) -> str:
    if mode not in (MODE_EXPLICIT, MODE_DIAG):
        raise ModelError(f"unknown mode {mode!r}; expected 'explicit' or 'diag'")
    return mode


def validate(raw: CompartmentalModel) -> CompartmentalModel:
    """Check all model invariants and return the canonicalized model."""
    if raw.n < 1:
        raise VertexOutOfRange(f"n must be >= 1, got {raw.n}")
    if raw.n > MAX_VERTICES:
        raise VertexOutOfRange(f"n must be <= {MAX_VERTICES}, got {raw.n}")
    for src, dst in raw.edges:
        if src == dst:
            raise SelfLoop(f"self-loop at vertex {src}")
        for v in (src, dst):
            if not 1 <= v <= raw.n:
                raise VertexOutOfRange(f"edge vertex {v} outside 1..{raw.n}")
    if len(set(raw.edges)) != len(raw.edges):
        seen: set[tuple[int, int]] = set()
        for e in raw.edges:
            if e in seen:
                raise DuplicateEdge(f"duplicate edge {e[0]}->{e[1]}")
            seen.add(e)
    for name, group in (("in", raw.inputs), ("out", raw.outputs), ("leak", raw.leaks)):
        for v in group:
            if not 1 <= v <= raw.n:
                raise VertexOutOfRange(f"{name} vertex {v} outside 1..{raw.n}")
    if not raw.inputs:
        raise EmptyInputSet("input set must be nonempty")
    if not raw.outputs:
        raise EmptyOutputSet("output set must be nonempty")
    return CompartmentalModel(
        n=raw.n,
        edges=tuple(sorted(raw.edges)),
        inputs=frozenset(raw.inputs),
        outputs=frozenset(raw.outputs),
        leaks=frozenset(raw.leaks),
    )


def make_model(
    n: int,
    edges: Iterable[tuple[int, int]] = (),
    inputs: Iterable[int] = (),
    outputs: Iterable[int] = (),
    leaks: Iterable[int] = (),
) -> CompartmentalModel:
    return validate(
        CompartmentalModel(
            n=n,
            edges=tuple(tuple(e) for e in edges),
            inputs=frozenset(inputs),
            outputs=frozenset(outputs),
            leaks=frozenset(leaks),
        )
    )


_MODEL_KEYS = {"n", "edges", "in", "out", "leak"}


def is_int_list(value, length: int | None = None) -> bool:
    """Is ``value`` a JSON list of integers, of ``length`` entries when given?
    Nothing is converted: booleans, floats and strings are not integers."""
    return (
        type(value) is list
        and (length is None or len(value) == length)
        and all(type(v) is int for v in value)
    )


def from_dict(doc: dict) -> CompartmentalModel:
    """The model a JSON document describes.  BadModelFile unless ``n`` is an
    integer and ``edges``, ``in``, ``out`` and ``leak`` are lists of integers
    (edges as pairs); no value is converted."""
    if not isinstance(doc, dict):
        raise BadModelFile("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise BadModelFile(f"unknown keys in model document: {sorted(unknown)}")
    missing = {"n", "edges", "in", "out"} - set(doc)
    if missing:
        raise BadModelFile(f"missing keys in model document: {sorted(missing)}")
    n, edges = doc["n"], doc["edges"]
    if type(n) is not int:
        raise BadModelFile(f"n must be an integer, got {n!r}")
    if type(edges) is not list or not all(is_int_list(e, 2) for e in edges):
        raise BadModelFile("edges must be a list of [src, dst] integer pairs")
    for key in ("in", "out", "leak"):
        if not is_int_list(doc.get(key, [])):
            raise BadModelFile(f"{key} must be a list of integers")
    return make_model(n, [tuple(e) for e in edges], doc["in"], doc["out"], doc.get("leak", []))


def from_json(text: str) -> CompartmentalModel:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise BadModelFile(f"invalid JSON: {exc}") from None
    return from_dict(doc)


def read_json(path: str, what: str = "model file", error: type[ModelError] = BadModelFile):
    """The JSON document in the file ``path``; ``error`` when the file is not
    UTF-8 (a ValueError), not JSON, or nested too deeply to parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not UTF-8 JSON: {exc}") from None


def load_model(path: str) -> CompartmentalModel:
    return from_dict(read_json(path))


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix of polynomials over the model's variable table."""

    table: VarTable
    entries: tuple[tuple[SparsePoly, ...], ...]

    def entry(self, i: int, j: int) -> SparsePoly:
        """1-based access."""
        return self.entries[i - 1][j - 1]


def compartmental_matrix(
    model: CompartmentalModel, mode: str, table: VarTable | None = None
) -> SymbolicMatrix:
    """The matrix A(G): edge rates off-diagonal, outflow sums (or generic
    diagonal parameters) on the diagonal.

    ``table`` may supply a larger shared variable table (used when embedding
    a subgraph's matrix in the parent model's variables); it must contain
    every parameter of this model/mode.
    """
    mode = normalize_mode(mode)
    if mode == MODE_DIAG and model.leaks != frozenset(model.vertices):
        raise ModeRequiresFullLeaks("diag mode requires a leak in every compartment")
    if table is None:
        table = model.vartable(mode)
    n = model.n
    zero = SparsePoly.zero(table)
    rows = [[zero] * n for _ in range(n)]
    for src, dst in model.edges:
        rows[dst - 1][src - 1] = SparsePoly.var(table, Param.edge(src, dst))
    for v in model.vertices:
        if mode == MODE_DIAG:
            diag = SparsePoly.var(table, Param.diag(v))
        else:
            diag = SparsePoly.zero(table)
            if v in model.leaks:
                diag = diag - SparsePoly.var(table, Param.leak(v))
            for dst in model.out_neighbors(v):
                diag = diag - SparsePoly.var(table, Param.edge(v, dst))
        rows[v - 1][v - 1] = diag
    return SymbolicMatrix(table=table, entries=tuple(tuple(r) for r in rows))
