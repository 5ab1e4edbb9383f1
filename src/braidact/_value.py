"""Bases for the package's small immutable value classes and words.

These are not dataclasses because importing ``dataclasses`` pulls in
``inspect``, ``ast`` and ``dis``: about 0.9 MB of resident memory, as
much as the rest of the package.  The values need only slots,
immutability, equality and hashing by their fields, a repr and
pickling, which fit in this class.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

from . import _kernels


def exact_int(x, message: str) -> int:
    """Outside data as an exact int (``operator.index``, so a bool counts
    as 0 or 1); a float, a string or None raises TypeError with
    ``message`` and the value, instead of being truncated or parsed."""
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"{message}, got {x!r}") from None


class Value:
    """Immutable slotted value; fields are the concrete class's ``__slots__``.

    Two values are equal when they have the same class and equal fields,
    in order; the hash is the hash of the field tuple.  ``__init__``
    sets fields with ``object.__setattr__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (type(self), self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__name__}({fields})"


class Word(Value):
    """A value of a size and a tuple of signed-integer letters.

    The concrete class names the two fields in its ``__slots__``, the
    size first (``rank``, ``strands`` or ``g``).  The size and each
    letter go through ``exact_int``; the class's ``_checked`` then
    validates them and returns the letters to store.
    """

    __slots__ = ()

    def __init__(self, size: int, letters: Iterable[int] = ()):
        size = exact_int(size, f"{self.__slots__[0]} must be an integer")
        raw = tuple(exact_int(x, "letters must be integers") for x in letters)
        letters = self._checked(size, raw)
        object.__setattr__(self, self.__slots__[0], size)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _wrap(cls, size: int, letters: tuple[int, ...]):
        """Internal: adopt letters that are already checked and stored as
        ``_checked`` would store them."""
        w = object.__new__(cls)
        object.__setattr__(w, cls.__slots__[0], size)
        object.__setattr__(w, "letters", letters)
        return w

    def _size(self) -> int:
        return getattr(self, self.__slots__[0])

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._size()}, {self.letters!r})"


class GroupWord(Word):
    """A freely reduced word in a group where letter ``-x`` inverts ``x``.

    ``_mismatch`` is the error type and message format, filled with the
    two sizes, for a product of words of different sizes.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, size: int):
        return cls(size)

    @classmethod
    def generator(cls, size: int, index: int):
        return cls(size, (index,))

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        size = self._size()
        if size != other._size():
            error, message = self._mismatch
            raise error(message.format(size, other._size()))
        return self._wrap(size, _kernels.concat_reduced(self.letters, other.letters))

    def inverse(self):
        return self._wrap(self._size(), _kernels.invert_reduced(self.letters))

    def __pow__(self, exponent: int):
        base = self if exponent >= 0 else self.inverse()
        return self._wrap(self._size(), _kernels.reduce_letters(base.letters * abs(exponent)))
