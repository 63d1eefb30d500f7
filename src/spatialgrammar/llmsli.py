"""Parser, canonical printer, and stats for the indoor layout language.

A program is a header line followed by grid sections::

    llmsli grid=1m dims=3x3 floor=6x6m
    main:
    0 1@90 0
    0 0 3@180(TV_on_top)
    0 0 0
    sublayout TV dims=1x1:
    4

Rows are whitespace-separated cell tokens, one grid row per line.  ``0`` is
the empty cell.  A cell token is ``KEY`` optionally followed, in this order,
by ``@YAW`` (integer degrees), ``[LxWxH]`` (meters), and one ``(NAME_on_FACE)``
group per face.  KEY is a vocabulary code or an identifier; ``main`` and
``sublayout`` are reserved.  Comments are full lines starting with ``#``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .errors import (
    CycleError,
    DanglingBlockError,
    ParseError,
    RaggedGridError,
)
from .geometry import GridSpec

MAX_NESTING_DEPTH = 8

_RESERVED = ("main", "sublayout")
# str.isdigit would wave through superscripts that int() then rejects
_DIGITS = "0123456789"
_NUMBER_CHARS = _DIGITS + "."
_IDENT_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_" + _DIGITS
_SIZE_SEPS = ("x", "×")  # ASCII x or the multiplication sign


class Face(str, Enum):
    TOP = "top"
    BOTTOM = "bottom"
    LEFT = "left"
    RIGHT = "right"
    FRONT = "front"
    BACK = "back"


FACE_ORDER: tuple[Face, ...] = (
    Face.TOP,
    Face.BOTTOM,
    Face.LEFT,
    Face.RIGHT,
    Face.FRONT,
    Face.BACK,
)
_FACE_INDEX = {f: i for i, f in enumerate(FACE_ORDER)}


def _face_sort_key(face: object) -> tuple[int, str]:
    # Works for both the indoor faces and the wall inner/outer faces.
    idx = _FACE_INDEX.get(face)  # type: ignore[arg-type]
    if idx is not None:
        return (idx, "")
    return (len(FACE_ORDER), str(getattr(face, "value", face)))


@dataclass(frozen=True)
class CellSpec:
    """One occupied grid cell.  yaw_deg is stored normalized to [0, 360)."""

    key: int | str
    yaw_deg: int = 0
    size_override: tuple[float, float, float] | None = None
    sublayout_refs: tuple[tuple[str, Face], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw_deg", int(self.yaw_deg) % 360)
        if self.size_override is not None:
            if any(v <= 0 for v in self.size_override):
                raise ValueError(f"size override must be positive: {self.size_override}")
            object.__setattr__(self, "size_override", tuple(float(v) for v in self.size_override))
        refs = tuple(sorted(self.sublayout_refs, key=lambda r: _face_sort_key(r[1])))
        faces = [f for _, f in refs]
        if len(set(faces)) != len(faces):
            raise ValueError("at most one sub-layout per face per cell")
        object.__setattr__(self, "sublayout_refs", refs)


@dataclass(frozen=True)
class GridBlock:
    """A named rectangular grid of cells; None entries are empty."""

    name: str
    rows: tuple[tuple[CellSpec | None, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def occupied(self) -> Iterator[tuple[int, int, CellSpec]]:
        for i, row in enumerate(self.rows):
            for j, cell in enumerate(row):
                if cell is not None:
                    yield (i, j, cell)

    def refs(self) -> list[str]:
        """Names of the blocks this grid's cells reference, in cell and face order."""
        return [name for _, _, cell in self.occupied() for name, _face in cell.sublayout_refs]


@dataclass(frozen=True)
class SceneProgram:
    """A parsed indoor-layout program; blocks includes the root block 'main'."""

    cell_size_m: float
    blocks: dict[str, GridBlock] = field(default_factory=dict)
    floor_extent_m: tuple[float, float] | None = None

    @property
    def main(self) -> GridBlock:
        return self.blocks["main"]

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.cell_size_m, self.main.n_rows, self.main.n_cols)


# ---------------------------------------------------------------------------
# shared low-level scanning (also used by the building-shell parser)


def significant_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, raw text) for non-blank, non-comment lines."""
    out = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((n, raw))
    return out


def tokens_with_cols(raw: str) -> list[tuple[str, int]]:
    """Whitespace-split with 1-based start columns."""
    toks = []
    pos = 0
    for tok in raw.split():
        pos = raw.index(tok, pos)
        toks.append((tok, pos + 1))
        pos += len(tok)
    return toks


@dataclass
class Section:
    kind: str  # "main" or "sublayout"
    name: str
    dims: tuple[int, int] | None
    line: int
    rows: list[tuple[int, str]]  # (line number, raw text)


def split_program(text: str, lang: str) -> tuple[tuple[int, str], list[Section]]:
    """Split source into the header line and its sections."""
    lines = significant_lines(text)
    if not lines:
        raise ParseError("empty program", line=1, col=1, expected=(f"'{lang}' header",))
    header = lines[0]
    first_tok = tokens_with_cols(header[1])
    if not first_tok or first_tok[0][0] != lang:
        raise ParseError(
            f"program must start with a '{lang}' header line",
            line=header[0],
            col=1,
            expected=(lang,),
        )
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in lines[1:]:
        stripped = raw.strip()
        if stripped.endswith(":"):
            current = _parse_section_header(stripped[:-1], lineno)
            if any(s.name == current.name for s in sections):
                raise ParseError(f"duplicate section {current.name!r}", line=lineno, col=1)
            sections.append(current)
            continue
        if current is None:
            raise ParseError(
                "grid rows must appear inside a section",
                line=lineno,
                col=1,
                expected=("main:", "sublayout <Name>:"),
            )
        current.rows.append((lineno, raw))
    return header, sections


def _parse_section_header(body: str, lineno: int) -> Section:
    toks = tokens_with_cols(body)
    if not toks:
        raise ParseError("empty section header", line=lineno, col=1)
    head, col = toks[0]
    if head == "main":
        if len(toks) > 1:
            raise ParseError("'main:' takes no arguments", line=lineno, col=toks[1][1])
        return Section("main", "main", None, lineno, [])
    if head == "sublayout":
        if len(toks) < 2:
            raise ParseError("sublayout needs a name", line=lineno, col=col, expected=("<Name>",))
        name, ncol = toks[1]
        if not _is_identifier(name):
            raise ParseError(f"invalid block name {name!r}", line=lineno, col=ncol)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", line=lineno, col=ncol)
        dims = None
        if len(toks) > 2:
            dtok, dcol = toks[2]
            if not dtok.startswith("dims="):
                raise ParseError(
                    f"unexpected token {dtok!r}", line=lineno, col=dcol, expected=("dims=<R>x<C>",)
                )
            dims = _parse_dims(dtok[5:], lineno, dcol)
            if len(toks) > 3:
                raise ParseError(f"unexpected token {toks[3][0]!r}", line=lineno, col=toks[3][1])
        return Section("sublayout", name, dims, lineno, [])
    raise ParseError(
        f"unknown section {head!r}", line=lineno, col=col, expected=("main:", "sublayout",)
    )


def _is_identifier(s: str) -> bool:
    return s.isascii() and s.isidentifier()


def _run_end(tok: str, pos: int, chars: str) -> int:
    """Index just past the run of ``chars`` that starts at ``pos``."""
    return len(tok) - len(tok[pos:].lstrip(chars))


def _parse_dims(s: str, lineno: int, col: int) -> tuple[int, int]:
    for sep in _SIZE_SEPS:
        if sep in s:
            a, _, b = s.partition(sep)
            if (a + b).isascii() and a.isdigit() and b.isdigit():
                if int(a) >= 1 and int(b) >= 1:
                    return (int(a), int(b))
            break
    raise ParseError(f"malformed dims {s!r}", line=lineno, col=col, expected=("<R>x<C>",))


def parse_length(s: str, lineno: int, col: int, what: str) -> float:
    """'<number>m' or '<number>cm' -> meters, zero included; ``what`` names
    the value in errors."""
    unit = None
    if s.endswith("cm"):
        unit, num = 0.01, s[:-2]
    elif s.endswith("m"):
        unit, num = 1.0, s[:-1]
    else:
        raise ParseError(
            f"{what} needs an explicit unit: {s!r}",
            line=lineno,
            col=col,
            expected=("<number>m", "<number>cm"),
        )
    return _parse_float(num, lineno, col, what=what) * unit


def parse_grid_value(s: str, lineno: int, col: int, what: str) -> float:
    """A parse_length that must be positive."""
    g = parse_length(s, lineno, col, what)
    if g <= 0:
        raise ParseError(f"{what} must be positive: {s!r}", line=lineno, col=col)
    return g


def _parse_float(s: str, lineno: int, col: int, what: str = "number") -> float:
    if not s or s.lstrip(_NUMBER_CHARS) or s.count(".") > 1 or s == ".":
        raise ParseError(f"malformed {what} {s!r}", line=lineno, col=col)
    value = float(s)
    if not math.isfinite(value):
        raise ParseError(f"{what} is too large to represent", line=lineno, col=col)
    return value


def header_pairs(header: tuple[int, str], lang: str) -> dict[str, tuple[str, int]]:
    """key -> (value, col) for 'key=value' tokens after the language keyword."""
    lineno, raw = header
    pairs: dict[str, tuple[str, int]] = {}
    for tok, col in tokens_with_cols(raw)[1:]:
        key, eq, value = tok.partition("=")
        if not eq or not key or not value:
            raise ParseError(
                f"malformed header token {tok!r}", line=lineno, col=col, expected=("key=value",)
            )
        if key in pairs:
            raise ParseError(f"duplicate header key {key!r}", line=lineno, col=col)
        pairs[key] = (value, col)
    return pairs


def parse_cell_token(
    tok: str,
    lineno: int,
    col: int,
    faces: dict[str, object],
    refs_out: list[tuple[str, object, int, int]],
) -> CellSpec | None:
    """Parse one cell token.  ``faces`` maps face names to enum values; references
    are appended to ``refs_out`` as (name, face, line, col) for later resolution."""
    pos = 0

    def err(msg: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(msg, line=lineno, col=col + pos, expected=expected)

    key: int | str
    if tok[0] in _DIGITS:
        pos = _run_end(tok, 0, _DIGITS)
        key = int(tok[:pos])
        if key == 0:
            if pos == len(tok):
                return None
            raise err("the empty cell '0' takes no annotations")
    elif _is_identifier(tok[0]):
        pos = _run_end(tok, 0, _IDENT_CHARS)
        key = tok[:pos]
        if key in _RESERVED:
            raise err(f"{key!r} is reserved and cannot name an object")
    else:
        raise err(f"invalid cell token {tok!r}", expected=("code", "identifier", "0"))

    yaw = 0
    if tok.startswith("@", pos):
        pos = start = pos + 1
        if tok.startswith("-", pos):
            pos += 1
        pos = _run_end(tok, pos, _DIGITS)
        if pos == start or tok[start:pos] == "-":
            raise err("yaw must be an integer", expected=("@<degrees>",))
        yaw = int(tok[start:pos])

    override = None
    if tok.startswith("[", pos):
        pos += 1
        dims = []
        for axis in range(3):
            start = pos
            pos = _run_end(tok, start, _NUMBER_CHARS)
            value = _parse_float(tok[start:pos], lineno, col + start, what="size")
            if value <= 0:
                raise ParseError(f"size must be positive: {value}", line=lineno, col=col + start)
            dims.append(value)
            if axis < 2:
                if not tok.startswith(_SIZE_SEPS, pos):
                    raise err("malformed size override", expected=("[LxWxH]",))
                pos += 1
        if not tok.startswith("]", pos):
            raise err("unterminated size override", expected=("]",))
        pos += 1
        override = tuple(dims)

    refs = []
    seen_faces = set()
    while tok.startswith("(", pos):
        start = pos + 1
        end = tok.find(")", start)
        if end < 0:
            raise err("unterminated sub-layout reference", expected=(")",))
        body = tok[start:end]
        pos = end + 1
        name, sep, face_name = body.rpartition("_on_")
        if not sep or not name or face_name not in faces:
            raise ParseError(
                f"malformed sub-layout reference {body!r}",
                line=lineno,
                col=col + start,
                expected=tuple(f"<Name>_on_{f}" for f in faces),
            )
        if not _is_identifier(name):
            raise ParseError(f"invalid block name {name!r}", line=lineno, col=col + start)
        face = faces[face_name]
        if face in seen_faces:
            raise ParseError(
                f"duplicate sub-layout on face {face_name!r}", line=lineno, col=col + start
            )
        seen_faces.add(face)
        refs.append((name, face))
        refs_out.append((name, face, lineno, col + start))

    if pos < len(tok):
        raise err(f"unexpected character {tok[pos]!r} in cell token")

    return CellSpec(key=key, yaw_deg=yaw, size_override=override, sublayout_refs=tuple(refs))


def block_from_section(
    sec: Section,
    faces: dict[str, object],
    refs_out: list[tuple[str, object, int, int]],
    parse_cell=parse_cell_token,
) -> GridBlock:
    """Parse a section's rows with ``parse_cell`` and check them against its dims."""
    if not sec.rows:
        raise ParseError(f"section {sec.name!r} has no rows", line=sec.line, col=1)
    rows = []
    width = None
    for lineno, raw in sec.rows:
        cells = [
            None if tok == "0" else parse_cell(tok, lineno, col, faces, refs_out)
            for tok, col in tokens_with_cols(raw)
        ]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedGridError(
                f"row has {len(cells)} cells, expected {width}", line=lineno, col=1
            )
        rows.append(tuple(cells))
    if sec.dims is not None and (len(rows), width) != sec.dims:
        raise RaggedGridError(
            f"grid is {len(rows)}x{width} but dims declare {sec.dims[0]}x{sec.dims[1]}",
            line=sec.line,
            col=1,
        )
    return GridBlock(name=sec.name, rows=tuple(rows))


def check_block_graph(
    blocks: dict[str, GridBlock],
    refs: list[tuple[str, object, int, int]],
    root_refs: list[str],
) -> None:
    """Resolve references, reject cycles, and bound the nesting depth."""
    for name, _face, lineno, col in refs:
        if name == "main":
            raise ParseError("'main' cannot be referenced as a sub-layout", line=lineno, col=col)
        if name not in blocks:
            raise DanglingBlockError(
                f"undeclared sub-layout block {name!r}", line=lineno, col=col
            )
    deepest = nesting_depth(blocks, root_refs)
    if deepest > MAX_NESTING_DEPTH:
        raise CycleError(f"nesting depth {deepest} exceeds the maximum of {MAX_NESTING_DEPTH}")


def nesting_depth(blocks: dict[str, GridBlock], root_refs: list[str]) -> int:
    """Longest sub-layout chain hanging off a root grid whose cells reference
    ``root_refs``; 0 when it references nothing.

    Visits every block, referenced or not, and raises CycleError when
    references form a cycle."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in blocks}
    depth: dict[str, int] = {}

    def visit(name: str, trail: list[str]) -> int:
        if color[name] == GREY:
            cycle = trail[trail.index(name):] + [name]
            raise CycleError("sub-layout cycle: " + " -> ".join(cycle))
        if color[name] == BLACK:
            return depth[name]
        color[name] = GREY
        trail.append(name)
        d = 0
        for child in blocks[name].refs():
            d = max(d, 1 + visit(child, trail))
        trail.pop()
        color[name] = BLACK
        depth[name] = d
        return d

    for name in blocks:
        visit(name, [])
    return max((1 + depth[r] for r in root_refs), default=0)


# ---------------------------------------------------------------------------
# the llmsli parser proper

_SLI_FACES = {f.value: f for f in Face}


def parse_llmsli(text: str) -> SceneProgram:
    """Parse indoor-layout source text into a SceneProgram."""
    if not isinstance(text, str):
        raise ParseError("program source must be text", line=1, col=1)
    header, sections = split_program(text, "llmsli")
    pairs = header_pairs(header, "llmsli")
    lineno = header[0]

    if "grid" not in pairs:
        raise ParseError("header is missing grid=<size>", line=lineno, col=1, expected=("grid=",))
    g = parse_grid_value(*_pair(pairs, "grid", lineno), "grid size")
    dims = None
    if "dims" in pairs:
        dims = _parse_dims(*_pair(pairs, "dims", lineno))
    floor = None
    if "floor" in pairs:
        floor = _parse_floor_value(*_pair(pairs, "floor", lineno))
    for key in pairs:
        if key not in ("grid", "dims", "floor"):
            raise ParseError(
                f"unknown header key {key!r}",
                line=lineno,
                col=pairs[key][1],
                expected=("grid", "dims", "floor"),
            )

    refs: list[tuple[str, object, int, int]] = []
    blocks: dict[str, GridBlock] = {}
    main_seen = False
    for sec in sections:
        if sec.kind == "main":
            main_seen = True
            sec.dims = dims
        blocks[sec.name] = block_from_section(sec, _SLI_FACES, refs)
    if not main_seen:
        raise ParseError("program has no 'main:' section", line=lineno, col=1, expected=("main:",))

    check_block_graph(blocks, refs, blocks["main"].refs())
    return SceneProgram(cell_size_m=g, blocks=blocks, floor_extent_m=floor)


def _pair(pairs: dict[str, tuple[str, int]], key: str, lineno: int) -> tuple[str, int, int]:
    value, col = pairs[key]
    return value, lineno, col


def _parse_floor_value(s: str, lineno: int, col: int) -> tuple[float, float]:
    if not s.endswith("m"):
        raise ParseError(
            f"floor extent needs a unit: {s!r}", line=lineno, col=col, expected=("<X>x<Y>m",)
        )
    body = s[:-1]
    for sep in _SIZE_SEPS:
        if sep in body:
            a, _, b = body.partition(sep)
            fx = _parse_float(a, lineno, col, what="floor extent")
            fy = _parse_float(b, lineno, col, what="floor extent")
            if fx <= 0 or fy <= 0:
                raise ParseError(f"floor extent must be positive: {s!r}", line=lineno, col=col)
            return (fx, fy)
    raise ParseError(f"malformed floor extent {s!r}", line=lineno, col=col, expected=("<X>x<Y>m",))


# ---------------------------------------------------------------------------
# canonical printing


def _fmt_num(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def format_cell(cell: CellSpec | None) -> str:
    if cell is None:
        return "0"
    parts = [str(cell.key)]
    if cell.yaw_deg % 360 != 0:
        parts.append(f"@{cell.yaw_deg % 360}")
    if cell.size_override is not None:
        parts.append("[" + "x".join(_fmt_num(v) for v in cell.size_override) + "]")
    for name, face in cell.sublayout_refs:
        parts.append(f"({name}_on_{face.value})")
    return "".join(parts)


def block_print_order(blocks: dict[str, GridBlock], roots: list[str]) -> list[str]:
    """The ``roots``, then blocks in first-reference (breadth-first) order, then
    any unreferenced blocks in declaration order."""
    order: list[str] = []
    seen: set[str] = set()

    def enqueue(names) -> None:
        for name in names:
            if name in blocks and name not in seen:
                seen.add(name)
                order.append(name)

    enqueue(roots)
    for name in order:  # order grows while it is walked: it is the BFS queue
        enqueue(blocks[name].refs())
    enqueue(blocks)
    return order


def print_llmsli(p: SceneProgram) -> str:
    """Render the canonical text form; parse(print_llmsli(p)) == p."""
    main = p.main
    header = f"llmsli grid={_fmt_num(p.cell_size_m)}m dims={main.n_rows}x{main.n_cols}"
    if p.floor_extent_m is not None:
        fx, fy = p.floor_extent_m
        header += f" floor={_fmt_num(fx)}x{_fmt_num(fy)}m"
    lines = [header]
    for name in block_print_order(p.blocks, ["main"]):
        block = p.blocks[name]
        if name == "main":
            lines.append("main:")
        else:
            lines.append(f"sublayout {name} dims={block.n_rows}x{block.n_cols}:")
        for row in block.rows:
            lines.append(" ".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def program_hash(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


def program_stats(p) -> dict[str, int]:
    """Size metrics over the canonical form of a layout or building program.

    token_count counts whitespace-delimited lexemes of the canonical text;
    max_depth is the longest sub-layout chain hanging off the root grid.
    """
    from . import llmslb  # local import; buildings reuse this entry point

    if isinstance(p, llmslb.BuildingProgram):
        canonical = llmslb.print_llmslb(p)
        blocks = p.blocks
        root_refs = p.root_refs()
        cells = p.grid.rows * p.grid.cols
        occupied = sum(1 for _ in p.structural_cells())
    else:
        canonical = print_llmsli(p)
        blocks = {k: v for k, v in p.blocks.items() if k != "main"}
        root_refs = p.main.refs()
        cells = p.main.n_rows * p.main.n_cols
        occupied = sum(1 for _ in p.main.occupied())

    ref_count = len(root_refs)
    for block in blocks.values():
        ref_count += len(block.refs())
        occupied += sum(1 for _ in block.occupied())
        cells += block.n_rows * block.n_cols

    return {
        "cells": cells,
        "occupied_cells": occupied,
        "sublayout_count": ref_count,
        "max_depth": nesting_depth(blocks, root_refs),
        "token_count": len(canonical.split()),
        "char_count": len(canonical),
    }
