"""Immutable values: one base, two kinds.

``Immutable`` refuses assignment and deletion with ``AttributeError("<Name>
is immutable")``; every value type of the package extends it.  ``Scalar``,
``Series`` and ``AbModule`` extend it directly, keep their own constructor,
pickling, equality and hash, and set their slots through
``object.__setattr__`` or a slot descriptor, which the base lets through.

A ``Record`` subclass names its fields in ``__slots__``.  It is built from
the fields by position or keyword, compares and hashes as the tuple of its
fields (only against its own class), prints as ``Name(field=value, ...)``,
and pickles and copies by value.  A subclass may define its own equality,
hash and repr.
"""

from __future__ import annotations


class Immutable:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Immutable):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            # the fields after the positional ones, in slot order
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(names)}"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

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
