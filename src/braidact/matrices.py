"""Exact square integer matrices.

Entries are Python ints, so products of long random words cannot
overflow silently.  The constructor takes integers only
(``operator.index``): a float or a string entry raises TypeError
instead of being truncated.  Determinants use the fraction-free Bareiss
scheme.  Matrix words are not evaluated here: ``symplectic.braid_matrix``
folds them column by column.  ``inverse`` (the integer adjugate,
unimodular matrices only, O(n^5)) is the one matrix inverse; no
command calls it, since inverse letters come from the twist table.

One rule decides where entries are checked.  Entries that come from
outside data are checked: ``IntMatrix(...)`` puts each one through
``operator.index`` and checks that the shape is square.  A result that
a method computes from ``IntMatrix`` values (a product, a transpose,
the identity, a minor, an inverse) is already a square tuple of exact
ints, so it is adopted unchecked through ``IntMatrix._wrap``.
"""

from __future__ import annotations

from typing import Iterable

from ._value import Value, exact_int
from .errors import DimensionMismatchError, NonUnimodularError
from .words import format_decimal


class IntMatrix(Value):
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(
            tuple(exact_int(x, "matrix entries must be integers") for x in row) for row in rows
        )
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatchError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _wrap(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Internal: adopt square rows of ints computed from checked values.

        ``rows`` must be a tuple of equal-length tuples of exact ints, as
        every result computed from ``IntMatrix`` entries is; data from
        outside the package goes through the checking constructor instead.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise DimensionMismatchError(f"the identity needs size >= 0, got {n}")
        return cls._wrap(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.rows[i][j]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot multiply {self.dim}x{self.dim} by {other.dim}x{other.dim}"
            )
        cols = tuple(zip(*other.rows))
        return IntMatrix._wrap(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix._wrap(tuple(zip(*self.rows)))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination.

        Step k replaces each row below the pivot p = m[k][k] with
        (row * p - f * pivot_row) // prev, where f = row[k] and prev is
        the previous pivot, in one whole-row comprehension (left of
        column k both rows are zero).  By Sylvester's identity every
        entry is then a minor of the input, so the division is exact.
        A row with f = 0 is only rescaled, x * p // prev, and left alone
        when p == prev; in the sparse braid matrices most rows have f = 0.
        A zero pivot is swapped with the first row below it that has a
        nonzero entry in its column.
        """
        n = self.dim
        if n == 0:
            return 1
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot_row = m[k]
            p = pivot_row[k]
            for i in range(k + 1, n):
                row = m[i]
                f = row[k]
                if f:
                    m[i] = [(x * p - f * y) // prev for x, y in zip(row, pivot_row)]
                elif p != prev:
                    m[i] = [x * p // prev for x in row]
            prev = p
        return sign * m[n - 1][n - 1]

    def _minor(self, i: int, j: int) -> "IntMatrix":
        return IntMatrix._wrap(
            tuple(
                tuple(x for c, x in enumerate(row) if c != j)
                for r, row in enumerate(self.rows)
                if r != i
            )
        )

    def inverse(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix via the integer adjugate."""
        d = self.det()
        if d not in (1, -1):
            raise NonUnimodularError(d)
        n = self.dim
        # adj[j][i] = (-1)^{i+j} minor(i,j); inverse = adj / det = adj * det.
        return IntMatrix._wrap(
            tuple(
                tuple(
                    d * (-1) ** (i + j) * self._minor(i, j).det() for i in range(n)
                )
                for j in range(n)
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __str__(self) -> str:
        cells = [[format_decimal(x) for x in row] for row in self.rows]
        width = max((len(x) for row in cells for x in row), default=1)
        return "\n".join("[" + "  ".join(x.rjust(width) for x in row) + "]" for row in cells)

    def to_json(self) -> str:
        """The rows as ``json.dumps(self.to_lists())`` writes them, also
        past the digits ``int`` writes to a string."""
        rows = ("[" + ", ".join(map(format_decimal, row)) + "]" for row in self.rows)
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_json()})"
