"""Record classes without code generation.

``@dataclass`` builds each class's ``__init__``, ``__repr__`` and
``__eq__`` by ``exec``-ing generated source when the class is created,
and importing :mod:`dataclasses` loads :mod:`inspect` and the ``ast``,
``dis`` and ``tokenize`` stack behind it.  A ``discover`` process paid
for both before reading a byte (DESIGN.md §4), so the record classes
that ``import repro.cli`` loads are plain classes instead: each declares
``__slots__`` and an explicit ``__init__`` (compiled into the ``.pyc``
like any other function) and inherits the rest from one of the two
bases here.  The hot records, created thousands of times per run,
assign their fields one by one; the rest pass them to :meth:`Record._init`.

The fields of a record are its ``__slots__`` in order, which is also
its constructor's parameter order.  A slot whose name starts with an
underscore is a cache: it takes no part in ``==``, ``hash``, the repr
or ``_init``.  A ``"__dict__"`` slot lets a caller hang extra
attributes on an instance, outside its fields.
``tests/test_record_classes.py`` pins the contract of every record
class.
"""

from __future__ import annotations


class Record:
    """Field-wise ``==`` and a ``Name(field=value, ...)`` repr.

    Records are mutable, so they are unhashable.
    """

    __slots__ = ()
    __hash__ = None
    #: The fields, in constructor order (set per subclass).
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for name in cls.__slots__ if not name.startswith("_")
        )

    def _init(self, *values) -> None:
        """Set every field, in constructor order."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """A :class:`Record` that refuses assignment and hashes by value.

    Its ``__init__`` sets the fields through :meth:`_init`; pickling
    and ``copy`` rebuild an instance through the constructor.
    """

    __slots__ = ()

    def _replace(self, **overrides):
        """A new instance with ``overrides`` applied, built (and so
        checked) by the constructor."""
        fields = dict(zip(self._fields, self._values()))
        fields.update(overrides)
        return self.__class__(**fields)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
