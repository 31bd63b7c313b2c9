"""Exception types shared across the package."""


class FormatError(ValueError):
    """A text input (HGR, colouring, or weights file) is malformed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line: int, message: str):
        prefix = f"line {line}: " if line > 0 else ""
        super().__init__(prefix + message)
        self.line = line
        self.message = message


class PreconditionError(ValueError):
    """An algorithm was invoked on an instance outside its stated domain."""


class InvariantBreach(RuntimeError):
    """An internal invariant failed.

    This signals a bug in the library, not bad input; callers should treat
    it as an internal error.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class GenerationError(RuntimeError):
    """An instance generator exhausted its retry budget."""
