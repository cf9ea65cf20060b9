"""Exception types shared across the package."""


class BBForestError(Exception):
    """Base class for every package-specific error."""


class ParameterError(BBForestError, ValueError):
    """A parameter violates an operation's preconditions."""


class MalformedInputError(BBForestError, ValueError):
    """Unparseable or dimensionally inconsistent graph input.

    Carries the 1-based line number when the problem was located while
    parsing text input; the number is folded into the message.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InstanceTooLargeError(BBForestError):
    """The instance exceeds a hard size cap of the requested algorithm."""


class PostconditionError(BBForestError):
    """A result failed a correctness check the package makes on its own
    output; this signals a bug, not bad input."""
