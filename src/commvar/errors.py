"""Shared exception types, and the base class of the value records."""

from operator import attrgetter


class LimitExceeded(RuntimeError):
    """An enumeration or scan would exceed its configured limit."""


class MathCheckFailed(AssertionError):
    """A mathematical invariant of a computation does not hold.

    Raised explicitly, so it fires under ``python -O`` too; subclassing
    AssertionError keeps the CLI's exit status 1 for failed checks.
    """


class Fresh:
    """A record field's default made anew for each record: ``Fresh(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class Record:
    """A value record whose subclass states only its fields and defaults.

    The fields are the subclass's annotations, in order; a class attribute
    of the same name is its default.  Records are built positionally or by
    keyword, compare and hash by field values, and show as
    ``Name(field=value, ...)``.  They refuse assignment unless the class is
    declared with ``frozen=False``, which also makes it unhashable.  Every
    subclass shares these methods; none are generated.
    """

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        for name, default in cls._defaults.items():
            if isinstance(default, Fresh):
                delattr(cls, name)
        cls._values = attrgetter(*cls._fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(names, args))

    @classmethod
    def _complete(cls, args, kwargs):
        """All field values from a call with keywords or missing defaults."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                "%s() takes %d arguments but %d were given" % (cls.__name__, len(names), len(args))
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                default = cls._defaults[name]
                values.append(default.make() if isinstance(default, Fresh) else default)
            else:
                raise TypeError("%s() missing argument %r" % (cls.__name__, name))
        if kwargs:
            raise TypeError(
                "%s() got an unexpected or repeated argument %r" % (cls.__name__, next(iter(kwargs)))
            )
        return values

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen record" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen record" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)
