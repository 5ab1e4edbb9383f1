"""A base for the package's small immutable value classes.

These are not dataclasses because importing ``dataclasses`` pulls in
``inspect``, ``ast`` and ``dis``: about 0.9 MB of resident memory, as
much as the rest of the package.  The values need only slots,
immutability, equality and hashing by their fields, a repr and
pickling, which fit in this class.
"""

from __future__ import annotations


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
