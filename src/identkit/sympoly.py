"""Exact sparse multivariate polynomial arithmetic with integer coefficients.

A polynomial is a dict mapping exponent tuples to (arbitrary-precision) int
coefficients.  Exponent tuples have a fixed arity given by a shared
:class:`VarTable`: one slot per named parameter plus one final slot reserved
for the differential indeterminate ``D`` (the operator variable of
characteristic polynomials).  Zero coefficients are never stored; the zero
polynomial is the empty dict.

All arithmetic is exact; no floating point appears anywhere in this module.
:func:`char_poly_coeffs` reads the characteristic polynomial of a matrix and
any of its signed cofactors from one memoized Laplace expansion of
``D*I - M``; :func:`determinant` uses the same expansion.
:func:`jacobian_at` evaluates the gradients of D-free polynomials at an
integer point modulo a prime without building any derivative polynomial.
Polynomials built over different variable tables cannot be mixed
(:class:`VariableMismatch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence


class VariableMismatch(ValueError):
    """Operands (or an evaluation point) disagree on the variable table."""


@dataclass(frozen=True)
class VarTable:
    """Fixed, ordered variable list; the final (implicit) slot is ``D``.

    ``params`` holds the named variables in their canonical order.  The
    exponent tuples of every polynomial over this table have arity
    ``len(params) + 1``, the last entry being the power of ``D``.
    """

    params: tuple[Hashable, ...]

    @property
    def arity(self) -> int:
        return len(self.params) + 1

    def index_of(self, label: Hashable) -> int:
        try:
            return self.params.index(label)
        except ValueError:
            raise VariableMismatch(f"unknown variable {label!r}") from None


class SparsePoly:
    """Immutable sparse polynomial over a :class:`VarTable`."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        self.table = table
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "SparsePoly":
        return SparsePoly(table, {})

    @staticmethod
    def const(table: VarTable, value: int) -> "SparsePoly":
        if value == 0:
            return SparsePoly.zero(table)
        return SparsePoly(table, {(0,) * table.arity: value})

    @staticmethod
    def var(table: VarTable, label: Hashable) -> "SparsePoly":
        idx = table.index_of(label)
        exp = [0] * table.arity
        exp[idx] = 1
        return SparsePoly(table, {tuple(exp): 1})

    @staticmethod
    def d_var(table: VarTable) -> "SparsePoly":
        exp = [0] * table.arity
        exp[-1] = 1
        return SparsePoly(table, {tuple(exp): 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.table.arity: 1}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise VariableMismatch("polynomials built over different variable tables")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        res = SparsePoly.__new__(SparsePoly)
        res.table = self.table
        res.terms = out
        return res

    def __neg__(self) -> "SparsePoly":
        res = SparsePoly.__new__(SparsePoly)
        res.table = self.table
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        if not self.terms or not other.terms:
            return SparsePoly.zero(self.table)
        out: dict[tuple[int, ...], int] = {}
        a_items = self.terms.items()
        b_items = list(other.terms.items())
        for ea, ca in a_items:
            for eb, cb in b_items:
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = SparsePoly.__new__(SparsePoly)
        res.table = self.table
        res.terms = out
        return res

    # -- D handling -----------------------------------------------------

    def d_coefficient(self, power: int) -> "SparsePoly":
        """The coefficient of ``D**power`` as a D-free polynomial."""
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            if e[-1] == power:
                out[e[:-1] + (0,)] = c
        return SparsePoly(self.table, out)

    # -- rendering ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lexicographic order (highest first), for stable output."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            factors = []
            for idx, k in enumerate(e[:-1]):
                if k == 0:
                    continue
                name = str(self.table.params[idx])
                factors.append(name if k == 1 else f"{name}^{k}")
            if e[-1]:
                factors.append("D" if e[-1] == 1 else f"D^{e[-1]}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            parts.append(("- " if c < 0 else "+ ") + chunk)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


# -- gradients at a point ------------------------------------------------


def jacobian_at(polys: Sequence[SparsePoly], values: Sequence[int], p: int) -> list[list[int]]:
    """Jacobian of D-free ``polys`` (rows) by their parameters (columns) at
    ``values``, reduced mod the prime ``p``; no derivative is built.

    A term c * prod x_i^k_i is valued once, as v mod p, and adds
    k_i * v * x_i^-1 to column i.  Every value must therefore be nonzero mod
    p; ``pow(x, -1, p)`` raises otherwise, so a zero value cannot give a
    silently wrong entry.
    """
    inverse = [pow(x, -1, p) for x in values]
    rows = []
    for poly in polys:
        if len(poly.table.params) != len(values):
            raise VariableMismatch(
                f"point assigns {len(values)} values for {len(poly.table.params)} parameters"
            )
        grad = [0] * len(values)
        for e, c in poly.terms.items():
            if e[-1]:
                raise VariableMismatch("cannot evaluate a polynomial containing D")
            support = [(i, k) for i, k in enumerate(e) if k]
            v = c
            for i, k in support:
                v *= values[i] if k == 1 else values[i] ** k
            v %= p
            for i, k in support:
                grad[i] += k * v * inverse[i]
        rows.append([g % p for g in grad])
    return rows


# -- symbolic determinants ---------------------------------------------


def _laplace(rows: Sequence[Sequence[SparsePoly]], table: VarTable):
    """Minor function of a square polynomial matrix: ``minor(rowmask, colmask)``
    is the determinant of the submatrix on those row and column bit sets.

    Each minor is expanded along its first row and memoized on (row set,
    column set), so the determinant and every cofactor of one matrix share
    their sub-minors; expanding the top rows first leaves row-suffix states
    that all of them reach.  Structural zeros prune most branches.
    """
    memo = {(0, 0): SparsePoly.const(table, 1)}  # the empty minor

    def minor(rowmask: int, colmask: int) -> SparsePoly:
        cached = memo.get((rowmask, colmask))
        if cached is not None:
            return cached
        low_row = rowmask & -rowmask
        row = rows[low_row.bit_length() - 1]
        acc = SparsePoly.zero(table)
        sign = 1
        rest = colmask
        while rest:
            low = rest & -rest
            entry = row[low.bit_length() - 1]
            if entry.terms:
                contrib = entry * minor(rowmask ^ low_row, colmask ^ low)
                acc = acc + (contrib if sign > 0 else -contrib)
            sign = -sign
            rest ^= low
        memo[rowmask, colmask] = acc
        return acc

    return minor


def determinant(rows: Sequence[Sequence[SparsePoly]], table: VarTable) -> SparsePoly:
    """Determinant of a square matrix of polynomials (memoized Laplace expansion)."""
    dim = len(rows)
    if any(len(r) != dim for r in rows):
        raise ValueError("determinant requires a square matrix")
    full = (1 << dim) - 1
    return _laplace(rows, table)(full, full)


def char_matrix(entries: Sequence[Sequence[SparsePoly]], table: VarTable) -> list[list[SparsePoly]]:
    """Rows of ``D*I - M`` for a square polynomial matrix ``M``."""
    d = SparsePoly.d_var(table)
    return [[d - e if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(entries)]


def char_poly_coeffs(
    entries: Sequence[Sequence[SparsePoly]],
    table: VarTable,
    positions: Sequence[tuple[int, int]] = (),
) -> list[SparsePoly]:
    """Coefficients of ``det(D*I - M)`` for ``D**(n-1) .. D**0``, then, per
    requested 1-based position (i, j) in order, those of the signed cofactor
    ``(-1)**(i+j) * det((D*I - M) minus row i, col j)`` for ``D**(n-2) .. D**0``.

    One expansion of ``D*I - M`` serves all of them.  The omitted leading
    coefficients are asserted: ``D**n`` has 1 (monic), and a cofactor's
    ``D**(n-1)`` has 1 when i == j and 0 otherwise.
    """
    dim = len(entries)
    minor = _laplace(char_matrix(entries, table), table)
    full = (1 << dim) - 1
    det = minor(full, full)
    if not det.d_coefficient(dim).is_one():
        raise AssertionError("characteristic polynomial is not monic")
    out = [det.d_coefficient(p) for p in range(dim - 1, -1, -1)]
    for i, j in positions:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"minor position ({i},{j}) out of range for dim {dim}")
        cof = minor(full ^ (1 << (i - 1)), full ^ (1 << (j - 1)))
        if (i + j) % 2:
            cof = -cof
        head = cof.d_coefficient(dim - 1)
        if i == j and not head.is_one():
            raise AssertionError("principal minor is not monic")
        if i != j and head.terms:
            raise AssertionError("off-diagonal minor has unexpected leading D coefficient")
        out += [cof.d_coefficient(p) for p in range(dim - 2, -1, -1)]
    return out
