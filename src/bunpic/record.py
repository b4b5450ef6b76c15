"""Frozen value records: what bunpic reads of ``dataclasses``, at a fraction of
its import cost.  ``@record`` adds ``__init__`` (then ``__post_init__``), ``==``
and ``hash`` over all fields, dataclass's repr, and ``AttributeError`` on
assignment and deletion; a field is an annotation with an optional default.  No
``__slots__``: ``once_per_group`` uses ``__dict__``."""

from operator import attrgetter
from types import SimpleNamespace as Field

MISSING = type("MISSING", (), {"__repr__": lambda self: "MISSING"})()   # no default
fields = attrgetter("_record_fields")   # the fields of a record class or instance, in order


class _Shared:   # the methods that record puts into every record class
    def __eq__(self, other):
        key = self._record_key
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._record_key(self))

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._record_fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


def record(cls):
    fs = [Field(name=name, type=kind, default=cls.__dict__.get(name, MISSING))
          for name, kind in cls.__dict__.get("__annotations__", {}).items()]
    args = ", ".join(f.name + ("" if f.default is MISSING else f"=_d_{f.name}") for f in fs)
    body = "".join(f"\n _set(self, {f.name!r}, {f.name})" for f in fs)
    post = "\n self.__post_init__()" * hasattr(cls, "__post_init__")
    scope = {"_set": object.__setattr__, **{f"_d_{f.name}": f.default for f in fs}}
    exec(f"def __init__(self, {args}):{body}{post}", scope)
    get = attrgetter(*[f.name for f in fs])
    key = get if len(fs) > 1 else (lambda obj: (get(obj),))  # hash a tuple
    cls.__init__, cls._record_fields, cls._record_key = scope["__init__"], tuple(fs), staticmethod(key)
    for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        setattr(cls, name, vars(_Shared)[name])
    return cls


def replace(obj, **changes):
    return obj.__class__(**{**asdict(obj), **changes})


def asdict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}
