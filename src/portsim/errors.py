"""Exception types shared across the package.

Every error carries the name of the subsystem that raised it so the CLI
can report provenance without inspecting tracebacks. A public reader, and
a record's ``__init__``, raises its error again from its own frame, through
``_detached``: the traceback starts at the function the caller called, and
holds neither the frames that parsed or checked the input nor what they read.
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
