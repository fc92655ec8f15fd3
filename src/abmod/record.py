"""Immutable value records.

A subclass names its fields in ``__slots__``.  It is built from the fields
by position or keyword, compares and hashes as the tuple of its fields
(only against its own class), prints as ``Name(field=value, ...)``,
pickles and copies by value, and refuses assignment and deletion with an
AttributeError.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(names)}"
            )
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self._fields())

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"
