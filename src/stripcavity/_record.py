"""The base of the package's immutable records.

Every value class of the package, from an optical constant to a design
report, is a `collections.namedtuple` with `Record` first among its bases::

    class Layer(Record, namedtuple("Layer", "material thickness_nm")):
        __slots__ = ()

An instance is a tuple of its fields in declaration order, so it unpacks and
indexes in that order. Making such a class costs one small ``exec``, where a
frozen dataclass compiles each of its generated methods on every import.

`Record` makes the tuple behave as a frozen value:

- it equals only an instance of its own class with equal fields, never a
  plain tuple or another record class, and hashes as the tuple of its fields;
- it has no order;
- assigning or deleting an attribute raises AttributeError;
- ``_make``, and with it ``_replace``, the copy with a change, call the
  class, so a copy is checked by the class's ``__new__`` as a new instance is.

A class that checks or normalises its fields does so in ``__new__``: before
``tuple.__new__(cls, fields)``, or after ``super().__new__`` where the
namedtuple's keywords and defaults make the instance. A class that holds
numpy columns derives from `ColumnRecord`, which equals only itself.
"""

__all__ = ["Record", "ColumnRecord"]


class Record(tuple):
    """A namedtuple made a frozen value; see the module docstring."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        # raised, not NotImplemented: a tuple on the other side would order it
        raise TypeError(f"{type(self).__name__} records have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ColumnRecord(Record):
    """A record of numpy columns, equal only to itself: an array has no
    single truth value for ==."""

    __slots__ = ()

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__
