"""Frozen records: ``@dataclass(frozen=True)`` as portsim uses it, without importing
``dataclasses``. ``__dataclass_fields__`` is made on first access, so callers that
import it can still use ``dataclasses.replace``, ``fields`` and ``asdict`` on records."""


def _values(self):
    return tuple([self.__dict__[name] for name in self.__match_args__])


def _eq(self, other):
    same = other.__class__ is self.__class__
    return _values(self) == _values(other) if same else NotImplemented


def _repr(self):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, _values(self)))
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Fields:
    def __get__(self, instance, cls):
        from dataclasses import make_dataclass
        ns = cls.__dict__
        spec = [(n, t, ns[n]) if n in ns else (n, t) for n, t in ns["__annotations__"].items()]
        cls.__dataclass_fields__ = make_dataclass(cls.__name__, spec).__dataclass_fields__
        return cls.__dataclass_fields__


def record(cls):
    """Make ``cls`` a frozen record. Its ``__init__`` takes the annotated fields in
    order, with the class attributes as defaults, then calls any ``__post_init__``."""
    attrs, names = cls.__dict__, tuple(cls.__dict__["__annotations__"])
    params = "".join(f", {n}=_defaults[{n!r}]" if n in attrs else f", {n}" for n in names)
    stores = "".join(f"\n    __d[{n!r}] = {n}" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    env = {"_defaults": attrs, "__name__": cls.__module__}
    exec(f"def __init__(self{params}):\n    __d = self.__dict__{stores}{post}", env)
    cls.__init__, cls.__match_args__, cls.__dataclass_fields__ = env["__init__"], names, _Fields()
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, lambda self: hash(_values(self)), _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    return type(obj)(**{**obj.__dict__, **changes})
