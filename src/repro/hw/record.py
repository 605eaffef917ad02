"""Value semantics for the plain ``__slots__`` records of the hardware
model: extents, page-table entries, SDMA descriptors and RcvArray
entries.

A frozen dataclass costs about 2.5x as much to construct as a slots
class with a plain ``__init__``.  :class:`Record` gives such a class the
equality, hashing and repr a dataclass would have, all computed from its
``__slots__``.
"""

from __future__ import annotations


class Record:
    """Base of a ``__slots__`` value record.

    Two records are equal when they are of the same type and their
    fields are equal; the hash and the repr follow the fields too, in
    ``__slots__`` order, as they did for the dataclasses.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__name__}({args})"
