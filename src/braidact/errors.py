"""Exception types shared across the package."""


class BraidactError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(BraidactError, ValueError):
    """A command-line argument is out of its allowed range."""


class MalformedWordError(BraidactError, ValueError):
    """A letter sequence uses a generator index outside the declared rank."""


class RankMismatchError(BraidactError, ValueError):
    """Two free-group values of different ranks were combined."""


class StrandMismatchError(BraidactError, ValueError):
    """Two braid words on different strand counts were combined."""


class WordSyntaxError(BraidactError, ValueError):
    """A word grammar violation, with the offending position.

    ``position`` is the 0-based character offset of the bad token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    @classmethod
    def at_token(cls, message: str, text: str, index: int) -> "WordSyntaxError":
        """The error for token ``index`` of ``text.split()``.

        Parsers locate a token only when it is bad: each token starts at
        the first occurrence of its text after the end of the one before,
        since only whitespace lies between them.
        """
        tokens = text.split()
        end = 0
        for token in tokens[:index]:
            end = text.index(token, end) + len(token)
        return cls(message, text.index(tokens[index], end))


class NotInverseError(BraidactError, ValueError):
    """A supplied endomorphism pair fails to be mutually inverse.

    ``generator`` is the 1-based index of a generator not fixed by the
    offending composition.
    """

    def __init__(self, message: str, generator: int):
        super().__init__(message)
        self.generator = generator


class NonUnimodularError(BraidactError, ValueError):
    """Integer matrix inversion was requested for a determinant not in {1, -1}."""

    def __init__(self, determinant: int):
        super().__init__(f"matrix is not unimodular (determinant {determinant})")
        self.determinant = determinant


class DimensionMismatchError(BraidactError, ValueError):
    """Matrix dimensions are incompatible with the requested operation."""


class WorkBudgetError(BraidactError, RuntimeError):
    """A command asks for more work than its stated budget allows."""


class ResourceLimitError(BraidactError, RuntimeError):
    """A word grew past the configured length cap during substitution."""

    def __init__(self, cap: int):
        super().__init__(f"word length exceeded the cap of {cap} letters")
        self.cap = cap
