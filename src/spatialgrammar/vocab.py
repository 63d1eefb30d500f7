"""Object vocabulary: numeric codes and open-vocabulary identifiers.

Cells reference objects either by integer code or by identifier; both resolve
here to a category and a default size.  Code 0 is permanently reserved for the
empty cell and can never be assigned.  Identifier resolution against external
asset databases is out of scope; a local vocabulary file stands in for it.

File format (whitespace-separated, ``#`` comments)::

    # code  identifier      category          L     W     H
    1       sofa            floor_furniture   1.9   0.9   0.8

A ``-`` in the code column declares an identifier-only entry.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Iterable, Iterator

from .errors import SchemaError, UnknownCode, UnknownIdentifier
from .geometry import Vec3

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ENV_VOCAB_PATH = "SPATIALGRAMMAR_VOCAB"


class Category(str, Enum):
    FLOOR_FURNITURE = "floor_furniture"
    SURFACE_ITEM = "surface_item"
    WALL_MOUNTED = "wall_mounted"
    CEILING_MOUNTED = "ceiling_mounted"
    STRUCTURAL = "structural"


@dataclass(frozen=True)
class VocabEntry:
    """One resolvable object kind."""

    identifier: str
    category: Category
    default_size: Vec3
    code: int | None = None

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.identifier):
            raise SchemaError(f"identifier must match [A-Za-z_][A-Za-z0-9_]*: {self.identifier!r}")
        if self.code is not None and self.code < 1:
            raise SchemaError(f"codes start at 1 (0 is the reserved empty cell): {self.code}")
        s = self.default_size
        if s.x <= 0 or s.y <= 0 or s.z <= 0:
            raise SchemaError(f"default size must be positive: {s}")


class Vocabulary:
    """Bidirectional lookup over a fixed entry set."""

    def __init__(self, entries: Iterable[VocabEntry]):
        self._entries: tuple[VocabEntry, ...] = tuple(entries)
        self._by_code: dict[int, VocabEntry] = {}
        self._by_ident: dict[str, VocabEntry] = {}
        for e in self._entries:
            if e.identifier in self._by_ident:
                raise SchemaError(f"duplicate identifier {e.identifier!r}")
            self._by_ident[e.identifier] = e
            if e.code is not None:
                if e.code in self._by_code:
                    raise SchemaError(f"duplicate code {e.code}")
                self._by_code[e.code] = e

    def lookup(self, key: int | str, cell: tuple[int, int] | None = None) -> VocabEntry:
        """Resolve a cell key.  Integer keys hit the code table, strings the identifier table."""
        if isinstance(key, bool):
            raise UnknownCode(f"invalid key {key!r}", key=key, cell=cell)
        if isinstance(key, int):
            if key == 0:
                raise UnknownCode("code 0 is the reserved empty cell", key=key, cell=cell)
            entry = self._by_code.get(key)
            if entry is None:
                raise UnknownCode(f"unknown object code {key}", key=key, cell=cell)
            return entry
        entry = self._by_ident.get(key)
        if entry is None:
            raise UnknownIdentifier(f"unknown object identifier {key!r}", key=key, cell=cell)
        return entry

    def __contains__(self, key: int | str) -> bool:
        try:
            self.lookup(key)
        except (UnknownCode, UnknownIdentifier):
            return False
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VocabEntry]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[VocabEntry, ...]:
        return self._entries


def parse_vocabulary(text: str, source: str = "<string>") -> Vocabulary:
    """Parse a vocabulary table; a malformed line raises SchemaError naming
    ``source`` and the line number."""
    entries = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise SchemaError(f"{source}:{n}: expected 6 columns, got {len(parts)}")
        code_s, ident, cat_s, lx, ly, lz = parts
        try:
            cat = Category(cat_s)
        except ValueError:
            raise SchemaError(f"{source}:{n}: unknown category {cat_s!r}") from None
        try:
            entries.append(
                VocabEntry(
                    identifier=ident,
                    category=cat,
                    default_size=Vec3(float(lx), float(ly), float(lz)),
                    code=None if code_s == "-" else int(code_s),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{source}:{n}: {exc}") from None
    return Vocabulary(entries)


_packaged_default: Vocabulary | None = None


def load_vocabulary(path: str | os.PathLike[str] | None = None) -> Vocabulary:
    """Load a vocabulary file.

    Resolution order: explicit ``path`` argument, the SPATIALGRAMMAR_VOCAB
    environment variable, then the packaged default table (parsed once and
    cached; it is immutable).
    """
    global _packaged_default
    if path is None:
        path = os.environ.get(ENV_VOCAB_PATH) or None
    if path is None:
        if _packaged_default is None:
            text = resources.files("spatialgrammar.data").joinpath("vocabulary.tsv").read_text()
            _packaged_default = parse_vocabulary(text, source="vocabulary.tsv")
        return _packaged_default
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vocabulary(fh.read(), source=str(path))
