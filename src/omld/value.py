"""The base of omld's immutable value classes.

A value class names its fields in ``__slots__`` and sets each once in its
``__init__`` with ``set_field``; after that, assigning or deleting a field
raises AttributeError, as parsers share one object per distinct term.  A
value equals only a value of its own class with equal fields, hashes its
fields, and has a repr naming them.  A ``"__dict__"`` slot, for a
``cached_property``, is not a field.
"""

from operator import attrgetter

set_field = object.__setattr__  # sets a field past Value.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # One C call reads the fields, as term hashing and equality are hot.
        cls._values = attrgetter(*cls._fields)  # not a descriptor: call as self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
