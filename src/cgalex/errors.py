"""Exception hierarchy shared by all cgalex modules.

Three branches matter to callers: ``ParseError`` (malformed text input,
carries optional file/line context), ``PreconditionError`` (well-formed
input outside an operation's domain) and ``CertificateError`` (a computed
answer failed its own check).  The CLI maps them to distinct exit codes.
"""


class Error(Exception):
    """Base class for all cgalex errors."""


class ParseError(Error):
    """Malformed textual input (word, polynomial, or file grammar)."""

    def __init__(self, message, *, filename=None, line=None, column=None):
        self.filename = filename
        self.line = line
        self.column = column
        prefix = ""
        if filename is not None and line is not None:
            prefix = f"{filename}:{line}: "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)
        self.message = message


class PreconditionError(Error):
    """Input is outside the mathematical domain of the operation."""


class CertificateError(Error):
    """A certificate that a computed answer must satisfy does not hold.

    Raised instead of an assert, so that the check also runs under
    ``python -O``; it signals a fault in the program, not in the input.
    """
