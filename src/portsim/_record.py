"""Frozen records: ``@dataclass(frozen=True)`` as portsim uses it, without importing
``dataclasses``. ``__dataclass_fields__`` and ``__signature__`` are made when read, so callers
can still use ``dataclasses.replace``, ``fields``, ``asdict`` and ``inspect.signature``."""

# A record's first constructions bind their arguments in a closure, so a short-lived process
# compiles nothing. Compiling a class's ``__init__`` takes 30-130 us warm and 50-540 us (median
# 200) as its first compile in a process, and saves 1.2-4.1 us per call (Python 3.11, shared
# 2-vCPU Linux box): the break-even is 25-50 calls warm and about 130 cold. A cold command
# builds each class at most 3 times.
_COMPILE_AFTER = 64


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


class _Signature:
    def __get__(self, instance, cls):
        from inspect import Parameter, Signature
        ns, kind, empty = cls.__dict__, Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty
        return Signature([Parameter(n, kind, default=ns.get(n, empty)) for n in cls.__match_args__])


def record(cls):
    """Make ``cls`` a frozen record. Its ``__init__`` takes the annotated fields in
    order, with the class attributes as defaults, then calls any ``__post_init__``."""
    attrs, names = cls.__dict__, tuple(cls.__dict__["__annotations__"])
    defaults = {n: attrs[n] for n in names if n in attrs}
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    built, compiled = 0, None

    def __init__(self, /, *args, **kwargs):
        # Binds a call as the compiled __init__ below would, and hands any call it cannot
        # bind to that function, so each TypeError text is CPython's own.
        nonlocal built, compiled
        built += 1  # not locked: a lost count only delays the switch
        tail, given = names[len(args):], {**defaults, **kwargs}
        if (built <= _COMPILE_AFTER and len(args) <= len(names)
                and all(map(tail.__contains__, kwargs)) and all(map(given.__contains__, tail))):
            self.__dict__.update(zip(names, (*args, *map(given.__getitem__, tail))))
            if post:
                self.__post_init__()
            return
        if compiled is None:  # two threads may both compile it; they install equal functions
            params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
            stores = "".join(f"\n    __d[{n!r}] = {n}" for n in names)
            env = {"_defaults": defaults, "__name__": cls.__module__}
            exec(f"def __init__(self{params}):\n    __d = self.__dict__{stores}{post}", env)
            compiled = cls.__init__ = env["__init__"]
        compiled(self, *args, **kwargs)

    cls.__init__, cls.__match_args__, cls.__dataclass_fields__ = __init__, names, _Fields()
    cls.__signature__ = _Signature()
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, lambda self: hash(_values(self)), _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    values = obj.__dict__  # the fields, and whatever else a check keeps on the instance
    return type(obj)(**{**{name: values[name] for name in obj.__match_args__}, **changes})


def asdict(obj):
    """A record as a dict of its fields, and each record in them too; tuples become lists."""
    if isinstance(obj, (tuple, list)):
        return [asdict(item) for item in obj]
    if not hasattr(type(obj), "__match_args__"):
        return obj
    return {name: asdict(value) for name, value in zip(obj.__match_args__, _values(obj))}
