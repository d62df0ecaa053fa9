"""Exact sparse multivariate polynomial arithmetic with integer coefficients.

A polynomial maps monomials to (arbitrary-precision) int coefficients over a
shared :class:`VarTable`: one slot per named parameter plus one final slot
reserved for the differential indeterminate ``D`` (the operator variable of
characteristic polynomials).  Zero coefficients are never stored; the zero
polynomial is the empty dict.

A monomial is packed into one int: the exponent in slot i takes bits
[i*W, (i+1)*W) with W = :data:`SLOT_BITS`, and ``D`` takes the top slot, so
the product of two monomials is one integer addition.  The top bit of every
slot is a guard: stored exponents are at most :data:`MAX_EXPONENT`, so the
sum of two never carries into the next slot, and a product with an exponent
above it raises :class:`OverflowError`.  The constructor takes terms as
{exponent tuple: coefficient}, and :attr:`SparsePoly.terms` decodes them back
into that form for printing and tests.

All arithmetic is exact; no floating point appears anywhere in this module.
:func:`char_poly_coeffs` reads the characteristic polynomial of a matrix and
any of its signed cofactors from one memoized Laplace expansion of
``D*I - M``; it serves printed input-output equations and test oracles, and
no rank computation expands a determinant.  Polynomials built over
different variable tables cannot be mixed (:class:`VariableMismatch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Sequence

SLOT_BITS = 8  # bits per exponent slot of a packed monomial
SLOT_MASK = (1 << SLOT_BITS) - 1
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1  # the slot's top bit is the guard


class VariableMismatch(ValueError):
    """Operands disagree on the variable table."""


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

    @cached_property
    def guard(self) -> int:
        """The top bit of every slot: a packed monomial has one of them set
        exactly when one of its exponents exceeds MAX_EXPONENT."""
        return sum(1 << (i * SLOT_BITS + SLOT_BITS - 1) for i in range(self.arity))

    def index_of(self, label: Hashable) -> int:
        try:
            return self.params.index(label)
        except ValueError:
            raise VariableMismatch(f"unknown variable {label!r}") from None

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != self.arity:
            raise VariableMismatch(f"{len(exponents)} exponents for {self.arity} slots")
        key = 0
        for i, k in enumerate(exponents):
            if not 0 <= k <= MAX_EXPONENT:
                raise OverflowError(f"exponent {k} outside 0..{MAX_EXPONENT}")
            key |= k << (i * SLOT_BITS)
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (i * SLOT_BITS)) & SLOT_MASK for i in range(self.arity))


def _mul_add(acc: dict[int, int], a: Mapping[int, int], b: Mapping[int, int], scale: int) -> None:
    """Add ``scale`` times the product of the packed polynomials ``a`` and
    ``b`` to ``acc``, which may be left holding zero coefficients."""
    get = acc.get
    for ea, ca in a.items():
        ca *= scale
        for eb, cb in b.items():
            e = ea + eb
            acc[e] = get(e, 0) + ca * cb


def _settle(acc: dict[int, int], guard: int) -> dict[int, int]:
    """``acc`` without its zero coefficients; a surviving exponent above
    MAX_EXPONENT raises instead of being stored."""
    out = {e: c for e, c in acc.items() if c}
    if any(map(guard.__and__, out)):
        raise OverflowError(f"an exponent exceeds {MAX_EXPONENT}")
    return out


class SparsePoly:
    """Immutable sparse polynomial over a :class:`VarTable`; ``packed`` maps
    packed monomials to their nonzero coefficients."""

    __slots__ = ("table", "packed")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        self.table = table
        self.packed = {table.pack(e): c for e, c in terms.items() if c != 0}

    @staticmethod
    def _of(table: VarTable, packed: dict[int, int]) -> "SparsePoly":
        res = SparsePoly.__new__(SparsePoly)
        res.table = table
        res.packed = packed
        return res

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The terms as {exponent tuple: coefficient}, decoded on each access."""
        unpack = self.table.unpack
        return {unpack(e): c for e, c in self.packed.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "SparsePoly":
        return SparsePoly._of(table, {})

    @staticmethod
    def const(table: VarTable, value: int) -> "SparsePoly":
        return SparsePoly._of(table, {0: value} if value else {})

    @staticmethod
    def var(table: VarTable, label: Hashable) -> "SparsePoly":
        return SparsePoly._of(table, {1 << (table.index_of(label) * SLOT_BITS): 1})

    @staticmethod
    def d_var(table: VarTable) -> "SparsePoly":
        return SparsePoly._of(table, {1 << (len(table.params) * SLOT_BITS): 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == {0: 1}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.table == other.table and self.packed == other.packed

    def __hash__(self) -> int:
        return hash(frozenset(self.packed.items()))

    def __bool__(self) -> bool:
        return bool(self.packed)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise VariableMismatch("polynomials built over different variable tables")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        if not self.packed:
            return other
        if not other.packed:
            return self
        out = dict(self.packed)
        for e, c in other.packed.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return SparsePoly._of(self.table, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._of(self.table, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        acc: dict[int, int] = {}
        _mul_add(acc, self.packed, other.packed, 1)
        return SparsePoly._of(self.table, _settle(acc, self.table.guard))

    # -- D handling -----------------------------------------------------

    def d_coefficients(self, top: int) -> list["SparsePoly"]:
        """The coefficients of ``D**top, ..., D**0`` as D-free polynomials,
        split off in one pass; a power of D above ``top`` raises IndexError."""
        shift = len(self.table.params) * SLOT_BITS
        low = (1 << shift) - 1
        parts: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for e, c in self.packed.items():
            parts[e >> shift][e & low] = c
        return [SparsePoly._of(self.table, part) for part in reversed(parts)]

    # -- rendering ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lexicographic order (highest first), for stable output."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.packed:
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


# -- symbolic determinants ---------------------------------------------


def _laplace(rows: Sequence[Sequence[SparsePoly]], table: VarTable):
    """Minor function of a square polynomial matrix: ``minor(rowmask, colmask)``
    is the packed determinant of the submatrix on those row and column bit sets.

    Each minor is expanded along its first row and memoized on (row set,
    column set), so the determinant and every cofactor of one matrix share
    their sub-minors; expanding the top rows first leaves row-suffix states
    that all of them reach.  Structural zeros prune most branches.
    """
    if any(e.table is not table and e.table != table for row in rows for e in row):
        raise VariableMismatch("matrix entries built over a different variable table")
    packed_rows = [[e.packed for e in row] for row in rows]
    guard = table.guard
    memo: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}  # the empty minor

    def minor(rowmask: int, colmask: int) -> dict[int, int]:
        cached = memo.get((rowmask, colmask))
        if cached is not None:
            return cached
        low_row = rowmask & -rowmask
        row = packed_rows[low_row.bit_length() - 1]
        acc: dict[int, int] = {}
        sign = 1
        rest = colmask
        while rest:
            low = rest & -rest
            entry = row[low.bit_length() - 1]
            if entry:
                _mul_add(acc, entry, minor(rowmask ^ low_row, colmask ^ low), sign)
            sign = -sign
            rest ^= low
        out = memo[rowmask, colmask] = _settle(acc, guard)
        return out

    return minor


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
    head, *out = SparsePoly._of(table, minor(full, full)).d_coefficients(dim)
    if not head.is_one():
        raise AssertionError("characteristic polynomial is not monic")
    for i, j in positions:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"minor position ({i},{j}) out of range for dim {dim}")
        cof = SparsePoly._of(table, minor(full ^ (1 << (i - 1)), full ^ (1 << (j - 1))))
        if (i + j) % 2:
            cof = -cof
        head, *rest = cof.d_coefficients(dim - 1)
        if i == j and not head.is_one():
            raise AssertionError("principal minor is not monic")
        if i != j and head.packed:
            raise AssertionError("off-diagonal minor has unexpected leading D coefficient")
        out += rest
    return out
