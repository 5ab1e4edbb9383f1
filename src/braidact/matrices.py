"""Exact square integer matrices.

Entries are Python ints, so products of long random words cannot
overflow silently.  Determinants use the fraction-free Bareiss scheme
and inverses go through the integer adjugate, which keeps everything in
exact integer arithmetic; inversion is only defined for unimodular
matrices (determinant +-1), the only case this package needs.  The
adjugate costs O(n^5), so the braid-matrix path avoids it: symplectic
matrices are inverted as -J M^T J (``symplectic.symplectic_inverse``).
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from ._value import Value
from .errors import DimensionMismatchError, NonUnimodularError


class IntMatrix(Value):
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatchError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _wrap(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Internal: adopt square rows of ints computed by this package."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        n = len(columns)
        return cls(tuple(tuple(columns[j][i] for j in range(n)) for i in range(n)))

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
        n = self.dim
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def __pow__(self, exponent: int) -> "IntMatrix":
        base = self if exponent >= 0 else self.inverse()
        out = IntMatrix.identity(self.dim)
        k = abs(exponent)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.dim)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
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
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def _minor(self, i: int, j: int) -> "IntMatrix":
        return IntMatrix(
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
        return IntMatrix(
            tuple(
                tuple(
                    d * (-1) ** (i + j) * self._minor(i, j).det() for i in range(n)
                )
                for j in range(n)
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def to_json(self) -> str:
        """Row-major JSON array of arrays."""
        return json.dumps(self.to_lists())

    @classmethod
    def from_json(cls, text: str) -> "IntMatrix":
        return cls.from_rows(json.loads(text))

    def __str__(self) -> str:
        width = max((len(str(x)) for row in self.rows for x in row), default=1)
        return "\n".join(
            "[" + "  ".join(f"{x:>{width}}" for x in row) + "]" for row in self.rows
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"
