"""The base of the package's immutable value classes.

A record class lists its fields in ``__slots__``, in order, and fills
them in its own ``__init__`` through ``set_field``.  The base makes
each instance immutable (assigning or deleting an attribute raises
``AttributeError``) and compares, hashes and prints it by its fields
in that order: ``Fact(id=1, attribute='a', value='v')``.  Records of
different classes never compare equal.
"""

from __future__ import annotations

from operator import attrgetter

# How an __init__ fills a slot, past Record.__setattr__.
set_field = object.__setattr__


class Record:
    """Immutable value semantics over the fields named in ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields' values, compared and hashed as one object
        cls._values = attrgetter(*cls.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed; an unknown field raises
        ``TypeError``."""
        for name in self.__slots__:
            if name not in changes:
                changes[name] = getattr(self, name)
        return self.__class__(**changes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__,
                           ", ".join("%s=%r" % (name, getattr(self, name))
                                     for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
