"""Exception types shared across the package.

Every error carries the name of the subsystem that raised it so the CLI
can report provenance without inspecting tracebacks. A public reader,
wrapped by ``_detaching``, and a record's ``__init__`` raise their error
again through ``_detached``: the traceback starts at the function the caller
called, and holds neither the frames that parsed or checked the input nor
what they read, nor (for a reader) its arguments.
"""

from __future__ import annotations


class PortsimError(Exception):
    """Base class for all errors raised by this package."""

    module = "portsim"


class ValidationError(PortsimError, ValueError):
    """A scenario (or one of its components) violates an invariant.

    ``field`` is the dotted path of the first offending field; the message
    states the violated constraint, e.g. ``"shares sum to 1.1"``.
    """

    module = "scenario"

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class DispatchError(PortsimError, ValueError):
    """Invalid input to the assignment solver or its oracle."""

    module = "dispatch"


def _detached(error: PortsimError) -> PortsimError:
    """``error`` with no traceback, and without the context it hides (``raise ... from None``)."""
    if error.__suppress_context__:
        error.__context__ = None
    return error.with_traceback(None)


def _detaching(reader):
    """``reader``, raising its rejection again from one frame that holds none of its arguments."""
    def detaching(*args, **kwargs):
        try:
            return reader(*args, **kwargs)
        except PortsimError as error:
            args = kwargs = None
            raise _detached(error)
    # by hand: a cold command imports no functools, which would cost it several ms
    detaching.__module__, detaching.__name__, detaching.__qualname__ = (
        reader.__module__, reader.__name__, reader.__qualname__)
    detaching.__doc__, detaching.__wrapped__ = reader.__doc__, reader
    return detaching
