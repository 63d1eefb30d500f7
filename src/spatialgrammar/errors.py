"""Exception hierarchy shared by the whole toolchain.

Parse-class errors (everything a malformed source file can trigger) derive
from ParseError so callers can catch one type around untrusted input.
"""

from __future__ import annotations


class SpatialGrammarError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SpatialGrammarError):
    """Source text rejected.  Carries 1-based position and what was expected."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        col: int | None = None,
        expected: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)

    def __str__(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f"line {self.line}"
            if self.col is not None:
                loc += f", col {self.col}"
            loc += ": "
        hint = ""
        if self.expected:
            hint = " (expected " + " or ".join(self.expected) + ")"
        return f"{loc}{self.message}{hint}"


class CycleError(ParseError):
    """Sub-layout references form a cycle or exceed the nesting limit."""


class RaggedGridError(ParseError):
    """Grid rows disagree in length, or contradict declared dims."""


class DanglingBlockError(ParseError):
    """A sub-layout reference names a block that is never declared."""


class OrphanOpeningError(ParseError):
    """A door/window cell has no adjacent wall run to live in."""


class VocabError(SpatialGrammarError):
    """Vocabulary lookup failure; optionally tagged with the grid cell."""

    def __init__(self, message: str, key: object = None, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.message = message
        self.key = key
        self.cell = cell

    def __str__(self) -> str:
        if self.cell is not None:
            return f"{self.message} at cell {self.cell}"
        return self.message


class UnknownCode(VocabError):
    pass


class UnknownIdentifier(VocabError):
    pass


class ZeroCellSize(SpatialGrammarError):
    """Grid cell size must be strictly positive."""


class ConfigError(SpatialGrammarError):
    """A compiler or validator setting is out of range."""


class CompileError(SpatialGrammarError):
    """Program is well-formed but cannot be lowered to a scene."""


class EmptyBlockError(CompileError):
    """A referenced sub-layout block has no occupied cells."""


class FaceDimensionError(CompileError):
    """Anchor face has no usable area."""


class SchemaError(SpatialGrammarError, ValueError):
    """An input document of the wrong shape: a scene JSON, checklist, scene
    template or vocabulary file."""


class UnsupportedFormat(SpatialGrammarError):
    """Unknown export format name."""


class UnknownRelation(SpatialGrammarError):
    """Relation name outside the supported predicate set."""


class LengthMismatch(SpatialGrammarError):
    """Multi-turn evaluation got differing scene/checklist counts."""


class TemplateExhausted(SpatialGrammarError):
    """Sampler could not realize the template within its attempt budget."""


class InjectionFailed(SpatialGrammarError):
    """A single error injection found no applicable edit."""


class ChainFailed(SpatialGrammarError):
    """No verified-invalid corruption found within the retry budget."""
