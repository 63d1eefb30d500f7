"""Parser, canonical printer, and closure analysis for the building-shell language.

Structural programs describe walls, doors, and windows on a BEV grid::

    llmslb grid=1m dims=4x4
    main:
    w w w w
    w 0 0 d
    w 0 0 w
    w w c w(AC_on_inner)

Symbols: ``w`` wall, ``d`` door, ``c`` window, ``0`` empty.  Wall cells may
carry ``(NAME_on_inner)`` / ``(NAME_on_outer)`` sub-layouts; the referenced
blocks use the full indoor cell grammar.  Header keys beyond ``grid`` /
``dims``: ``height`` and ``thickness`` of walls, ``door=<W>x<H>m``,
``window=<W>x<H>m``, ``sill=<Z>m`` (window sill), and ``ceiling=<Block>``
naming a block hung from the ceiling plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .errors import DanglingBlockError, OrphanOpeningError, ParseError
from .geometry import GridSpec
from .llmsli import (
    _SLI_FACES,
    GridBlock,
    Section,
    _fmt_num,
    _parse_dims,
    _parse_floor_value,
    block_from_section,
    block_print_order,
    check_block_graph,
    format_cell,
    header_pairs,
    parse_cell_token,
    parse_grid_value,
    parse_length,
    split_program,
    tokens_with_cols,
)

DEFAULT_WALL_HEIGHT_M = 2.6
DEFAULT_WALL_THICKNESS_M = 0.2


class StructSymbol(str, Enum):
    WALL = "w"
    DOOR = "d"
    WINDOW = "c"


class WallFace(str, Enum):
    INNER = "inner"
    OUTER = "outer"


_WALL_FACE_INDEX = {WallFace.INNER: 0, WallFace.OUTER: 1}
_SLB_FACES = {f.value: f for f in WallFace}


@dataclass(frozen=True)
class StructCell:
    symbol: StructSymbol
    sublayout_refs: tuple[tuple[str, WallFace], ...] = ()

    def __post_init__(self) -> None:
        if self.sublayout_refs and self.symbol is not StructSymbol.WALL:
            raise ValueError("sub-layouts attach to wall cells only")
        refs = tuple(sorted(self.sublayout_refs, key=lambda r: _WALL_FACE_INDEX[r[1]]))
        object.__setattr__(self, "sublayout_refs", refs)


@dataclass(frozen=True)
class OpeningParams:
    """Default opening geometry; width is absolute meters, not a cell fraction."""

    width_m: float
    height_m: float
    sill_m: float

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0 or self.sill_m < 0:
            raise ValueError(f"invalid opening parameters: {self}")


DEFAULT_DOOR = OpeningParams(width_m=0.9, height_m=2.0, sill_m=0.0)
DEFAULT_WINDOW = OpeningParams(width_m=1.2, height_m=1.2, sill_m=0.9)


@dataclass(frozen=True)
class BuildingProgram:
    cell_size_m: float
    cells: tuple[tuple[StructCell | None, ...], ...]
    wall_height_m: float = DEFAULT_WALL_HEIGHT_M
    wall_thickness_m: float = DEFAULT_WALL_THICKNESS_M
    door: OpeningParams = DEFAULT_DOOR
    window: OpeningParams = DEFAULT_WINDOW
    blocks: dict[str, GridBlock] = field(default_factory=dict)
    ceiling_block: str | None = None

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.cell_size_m, len(self.cells), len(self.cells[0]))

    def structural_cells(self) -> Iterator[tuple[int, int, StructCell]]:
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                if cell is not None:
                    yield (i, j, cell)

    def root_refs(self) -> list[str]:
        """Blocks hung off the shell: wall-cell references, then the ceiling block."""
        refs = [name for _, _, cell in self.structural_cells() for name, _f in cell.sublayout_refs]
        if self.ceiling_block is not None:
            refs.append(self.ceiling_block)
        return refs


# ---------------------------------------------------------------------------
# parsing


def _parse_struct_token(
    tok: str, lineno: int, col: int, faces: dict[str, object], refs_out: list
) -> StructCell | None:
    cell = parse_cell_token(tok, lineno, col, faces, refs_out)
    if cell is None:
        return None
    if not isinstance(cell.key, str) or cell.key not in ("w", "d", "c"):
        raise ParseError(
            f"unknown structural symbol {cell.key!r}",
            line=lineno,
            col=col,
            expected=("w", "d", "c", "0"),
        )
    if cell.yaw_deg % 360 != 0 or cell.size_override is not None:
        raise ParseError(
            "structural symbols take no yaw or size annotations", line=lineno, col=col
        )
    symbol = StructSymbol(cell.key)
    if cell.sublayout_refs and symbol is not StructSymbol.WALL:
        raise ParseError("sub-layouts attach to wall cells only", line=lineno, col=col)
    return StructCell(symbol=symbol, sublayout_refs=cell.sublayout_refs)


def parse_llmslb(text: str) -> BuildingProgram:
    """Parse building-shell source text into a BuildingProgram."""
    if not isinstance(text, str):
        raise ParseError("program source must be text", line=1, col=1)
    header, sections = split_program(text, "llmslb")
    pairs = header_pairs(header, "llmslb")
    lineno = header[0]

    known = ("grid", "dims", "height", "thickness", "door", "window", "sill", "ceiling")
    for key in pairs:
        if key not in known:
            raise ParseError(
                f"unknown header key {key!r}", line=lineno, col=pairs[key][1], expected=known
            )
    if "grid" not in pairs:
        raise ParseError("header is missing grid=<size>", line=lineno, col=1, expected=("grid=",))

    def length(key: str, noun: str, default: float) -> float:
        if key not in pairs:
            return default
        value, col = pairs[key]
        return parse_grid_value(value, lineno, col, noun)

    g = parse_grid_value(pairs["grid"][0], lineno, pairs["grid"][1], "grid size")
    dims = _parse_dims(pairs["dims"][0], lineno, pairs["dims"][1]) if "dims" in pairs else None
    height = length("height", "wall height", DEFAULT_WALL_HEIGHT_M)
    thickness = length("thickness", "wall thickness", DEFAULT_WALL_THICKNESS_M)
    sill = DEFAULT_WINDOW.sill_m
    if "sill" in pairs:
        sill = parse_length(pairs["sill"][0], lineno, pairs["sill"][1], "sill height")
    door = DEFAULT_DOOR
    if "door" in pairs:
        w, h = _parse_floor_value(pairs["door"][0], lineno, pairs["door"][1])
        door = OpeningParams(width_m=w, height_m=h, sill_m=0.0)
    window = OpeningParams(DEFAULT_WINDOW.width_m, DEFAULT_WINDOW.height_m, sill)
    if "window" in pairs:
        w, h = _parse_floor_value(pairs["window"][0], lineno, pairs["window"][1])
        window = OpeningParams(width_m=w, height_m=h, sill_m=sill)

    main_sec = next((sec for sec in sections if sec.kind == "main"), None)
    if main_sec is None:
        raise ParseError("program has no 'main:' section", line=lineno, col=1, expected=("main:",))
    if not main_sec.rows:
        raise ParseError("'main' section has no rows", line=main_sec.line, col=1)
    main_sec.dims = dims
    struct_refs: list = []
    main = block_from_section(main_sec, _SLB_FACES, struct_refs, _parse_struct_token)

    block_refs: list = []
    blocks: dict[str, GridBlock] = {}
    for sec in sections:
        if sec is not main_sec:
            blocks[sec.name] = block_from_section(sec, _SLI_FACES, block_refs)

    for name, _face, ref_line, ref_col in struct_refs:
        if name not in blocks:
            raise DanglingBlockError(
                f"undeclared sub-layout block {name!r}", line=ref_line, col=ref_col
            )
    ceiling = None
    if "ceiling" in pairs:
        ceiling = pairs["ceiling"][0]
        if ceiling not in blocks:
            raise DanglingBlockError(
                f"undeclared ceiling block {ceiling!r}", line=lineno, col=pairs["ceiling"][1]
            )

    program = BuildingProgram(
        cell_size_m=g,
        cells=main.rows,
        wall_height_m=height,
        wall_thickness_m=thickness,
        door=door,
        window=window,
        blocks=blocks,
        ceiling_block=ceiling,
    )
    check_block_graph(blocks, block_refs, program.root_refs())
    _check_orphan_openings(program, main_sec)
    _check_opening_heights(program, lineno)
    return program


def _check_opening_heights(p: BuildingProgram, lineno: int) -> None:
    """An opening that the grid uses must not rise above its wall."""
    used = {cell.symbol for _, _, cell in p.structural_cells()}
    for symbol, opening in ((StructSymbol.DOOR, p.door), (StructSymbol.WINDOW, p.window)):
        top = opening.sill_m + opening.height_m
        # the slack absorbs the rounding of sill + height, e.g. 0.9 + 1.2
        if symbol in used and top > p.wall_height_m + 1e-9:
            raise ParseError(
                f"{symbol.name.lower()} top at {top:g}m is above the wall height "
                f"{p.wall_height_m:g}m",
                line=lineno,
                col=1,
            )


def _check_orphan_openings(p: BuildingProgram, main_sec: Section) -> None:
    runs = wall_runs(p)
    run_of: dict[tuple[int, int], list[Run]] = {}
    for run in runs:
        for cell in run.cells:
            run_of.setdefault(cell, []).append(run)
    for i, j, cell in p.structural_cells():
        if cell.symbol is StructSymbol.WALL:
            continue
        if any(
            any(p.cells[a][b].symbol is StructSymbol.WALL for a, b in run.cells)
            for run in run_of.get((i, j), ())
        ):
            continue
        line, raw = main_sec.rows[i]
        raise OrphanOpeningError(
            f"{'door' if cell.symbol is StructSymbol.DOOR else 'window'} at cell ({i},{j}) "
            "has no adjacent wall",
            line=line,
            col=tokens_with_cols(raw)[j][1],
        )


# ---------------------------------------------------------------------------
# wall runs


@dataclass(frozen=True)
class Run:
    """A maximal straight stretch of wall-continuing cells.

    axis 0 extends along world x (row index varies), axis 1 along world y.
    Corner cells belong to one run per axis; isolated cells form 1-cell runs.
    """

    axis: int
    cells: tuple[tuple[int, int], ...]


def _neighbors(c: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    i, j = c
    return ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))


def _flood(
    starts: Iterable[tuple[int, int]], passable: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Cells 4-connected to ``starts`` (all in ``passable``) through ``passable``."""
    reached = set(starts)
    stack = list(reached)
    while stack:
        for nb in _neighbors(stack.pop()):
            if nb in passable and nb not in reached:
                reached.add(nb)
                stack.append(nb)
    return reached


def wall_runs(p: BuildingProgram) -> list[Run]:
    occupied = {(i, j) for i, j, _ in p.structural_cells()}
    runs: list[Run] = []
    for axis, (di, dj) in enumerate(((1, 0), (0, 1))):
        for i, j in occupied:
            if (i - di, j - dj) in occupied:
                continue  # not the first cell of its run along this axis
            n = 1
            while (i + n * di, j + n * dj) in occupied:
                n += 1
            # a cell with no occupied neighbor is a 1-cell run, listed once
            if n >= 2 or (axis == 0 and occupied.isdisjoint(_neighbors((i, j)))):
                cells = tuple((i + k * di, j + k * dj) for k in range(n))
                runs.append(Run(axis=axis, cells=cells))
    runs.sort(key=lambda r: (r.axis, r.cells[0]))
    return runs


# ---------------------------------------------------------------------------
# closure analysis


@dataclass(frozen=True)
class ClosureDiagnostic:
    """One connected wall component that does not close into a loop."""

    component: tuple[tuple[int, int], ...]
    endpoints: tuple[tuple[int, int], ...]
    gap: tuple[int, int] | None
    message: str


def check_closure(p: BuildingProgram) -> list[ClosureDiagnostic]:
    """Report wall components that are not closed loops.

    Doors and windows continue a wall.  A component is closed when every cell
    has at least two orthogonal neighbors inside the component; cells with
    fewer are reported as open ends, and for a single missing cell the gap is
    named explicitly.
    """
    occupied = {(i, j) for i, j, _ in p.structural_cells()}
    seen: set[tuple[int, int]] = set()
    diagnostics: list[ClosureDiagnostic] = []
    for start in sorted(occupied):
        if start in seen:
            continue
        component = sorted(_flood([start], occupied))
        seen.update(component)
        endpoints = tuple(
            c for c in component if sum(1 for nb in _neighbors(c) if nb in occupied) < 2
        )
        if not endpoints:
            continue
        gap = None
        if len(endpoints) == 2:
            shared = [
                c
                for c in _neighbors(endpoints[0])
                if c in _neighbors(endpoints[1]) and c not in occupied
            ]
            if shared:
                gap = sorted(shared)[0]
        message = "wall component is not a closed loop: open ends at " + ", ".join(
            f"({i},{j})" for i, j in endpoints
        )
        if gap is not None:
            message += f"; possible gap at ({gap[0]},{gap[1]})"
        diagnostics.append(
            ClosureDiagnostic(
                component=tuple(component), endpoints=endpoints, gap=gap, message=message
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# canonical printing


def format_struct_cell(cell: StructCell | None) -> str:
    if cell is None:
        return "0"
    parts = [cell.symbol.value]
    for name, face in cell.sublayout_refs:
        parts.append(f"({name}_on_{face.value})")
    return "".join(parts)


def print_llmslb(p: BuildingProgram) -> str:
    """Render the canonical text form; parse(print_llmslb(p)) == p."""
    rows, cols = len(p.cells), len(p.cells[0])
    header = (
        f"llmslb grid={_fmt_num(p.cell_size_m)}m dims={rows}x{cols}"
        f" height={_fmt_num(p.wall_height_m)}m thickness={_fmt_num(p.wall_thickness_m)}m"
        f" door={_fmt_num(p.door.width_m)}x{_fmt_num(p.door.height_m)}m"
        f" window={_fmt_num(p.window.width_m)}x{_fmt_num(p.window.height_m)}m"
        f" sill={_fmt_num(p.window.sill_m)}m"
    )
    if p.ceiling_block is not None:
        header += f" ceiling={p.ceiling_block}"
    lines = [header, "main:"]
    for row in p.cells:
        lines.append(" ".join(format_struct_cell(c) for c in row))

    for name in block_print_order(p.blocks, p.root_refs()):
        block = p.blocks[name]
        lines.append(f"sublayout {name} dims={block.n_rows}x{block.n_cols}:")
        for row in block.rows:
            lines.append(" ".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"
