"""Lowering of parsed programs into world-space box scenes.

Conventions (also documented in LANGUAGE.md):

- Grid cell (i, j) anchors at world (i*g, j*g); footprints may overhang cells.
- Root anchors by category: floor_furniture (and, with a warning, surface and
  wall items) rest with bottom exactly at z=0; ceiling_mounted items hang with
  their top at the ceiling plane.
- Object local axes: +x is the front/facing direction, +y the left side,
  +z up.  Faces: front=+x, back=-x, left=+y, right=-y, top=+z, bottom=-z.
- A sub-layout on a face subdivides that face's rectangle into its block grid.
  Rows run along the longer in-plane axis (ties prefer the earlier of x,y,z);
  index 0 sits at the negative end.  Children on top rest on the plane, on
  bottom hang under it; children on vertical faces are rotated so their back
  (-x) face is flush against the plane, standing off by half their length.
- Cell yaw composes additively down the nesting chain.
- Walls become one box per maximal run; door/window cells stay inside the run
  and are recorded as Opening entries, not geometry cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CompileError, EmptyBlockError, FaceDimensionError, VocabError
from .geometry import GridSpec, OrientedBox, Vec3, normalize_yaw, normalize_yaw_rad
from .llmsli import (
    CellSpec,
    Face,
    GridBlock,
    SceneProgram,
    parse_llmsli,
    print_llmsli,
    program_hash,
)
from .llmslb import (
    BuildingProgram,
    Run,
    StructSymbol,
    WallFace,
    check_closure,
    parse_llmslb,
    print_llmslb,
    wall_runs,
)
from .vocab import Category, VocabEntry, Vocabulary

DEFAULT_CEILING_HEIGHT_M = 2.6  # matches the default wall height

_CEILING_SLAB_M = 0.2  # virtual slab used to hang ceiling blocks


@dataclass(frozen=True)
class CompilerConfig:
    ceiling_height_m: float = DEFAULT_CEILING_HEIGHT_M


@dataclass(frozen=True)
class Provenance:
    """Where a placement came from in the program."""

    block: str
    row: int
    col: int
    depth: int
    face: Face | WallFace | None = None


@dataclass(frozen=True)
class Placement:
    id: str
    identifier: str
    category: Category
    box: OrientedBox
    parent: str | None
    depth: int
    source: Provenance


@dataclass(frozen=True)
class Opening:
    """A door or window recorded inside a wall run."""

    id: str
    kind: str  # "door" | "window"
    wall: str  # id of the carrying wall placement
    center: Vec3
    width_m: float
    height_m: float
    sill_m: float
    cell: tuple[int, int]


@dataclass(frozen=True)
class CompiledScene:
    grid: GridSpec
    placements: tuple[Placement, ...]
    structural: tuple[Placement, ...] = ()
    openings: tuple[Opening, ...] = ()
    provenance: str = ""
    warnings: tuple[str, ...] = ()

    def all_placements(self) -> tuple[Placement, ...]:
        return self.structural + self.placements

    def by_id(self, pid: str) -> Placement:
        for p in self.all_placements():
            if p.id == pid:
                return p
        raise KeyError(pid)


@dataclass(frozen=True)
class AnchoredChild:
    """One occupied sub-layout cell, positioned in the parent's local frame."""

    row: int
    col: int
    cell: CellSpec
    entry: VocabEntry
    local_box: OrientedBox


# ---------------------------------------------------------------------------
# primitive operations


def compile_placement(
    cell: CellSpec,
    at: tuple[int, int],
    grid: GridSpec,
    vocab: Vocabulary,
    ceiling_height_m: float = DEFAULT_CEILING_HEIGHT_M,
) -> OrientedBox:
    """World box of a single root-grid cell."""
    return _root_box(cell, _resolve(cell, vocab, at), at, grid, ceiling_height_m)


def _root_box(
    cell: CellSpec,
    entry: VocabEntry,
    at: tuple[int, int],
    grid: GridSpec,
    ceiling_height_m: float,
) -> OrientedBox:
    size = _cell_size(cell, entry)
    i, j = at
    x, y = grid.cell_center(i, j)
    if entry.category is Category.CEILING_MOUNTED:
        z = ceiling_height_m - size.z / 2.0
    else:
        z = size.z / 2.0  # bottom face exactly on the floor
    return OrientedBox(center=Vec3(x, y, z), size=size, yaw=normalize_yaw(cell.yaw_deg))


def compose_frames(parent: OrientedBox, child_local: OrientedBox) -> OrientedBox:
    """Express a child box given in the parent's frame in the parent's own frame of
    reference's coordinates: rotate the local center by the parent yaw, translate by
    the parent center, and add yaws."""
    return OrientedBox(
        center=parent.center + child_local.center.rotated_z(parent.yaw),
        size=child_local.size,
        yaw=normalize_yaw_rad(parent.yaw + child_local.yaw),
    )


# face -> (plane axis, plane sign, mount yaw); axes are 0=x, 1=y, 2=z
_FACE_GEOMETRY: dict[Face, tuple[int, float, float]] = {
    Face.TOP: (2, 1.0, 0.0),
    Face.BOTTOM: (2, -1.0, 0.0),
    Face.FRONT: (0, 1.0, 0.0),
    Face.BACK: (0, -1.0, math.pi),
    Face.LEFT: (1, 1.0, math.pi / 2.0),
    Face.RIGHT: (1, -1.0, 3.0 * math.pi / 2.0),
}


def anchor_sublayout(
    parent_box: OrientedBox,
    face: Face,
    block: GridBlock,
    vocab: Vocabulary,
) -> list[AnchoredChild]:
    """Place a block's occupied cells on a parent face, in the parent's local frame."""
    occupied = list(block.occupied())
    if not occupied:
        raise EmptyBlockError(f"sub-layout block {block.name!r} has no occupied cells")

    plane_axis, plane_sign, mount_yaw = _FACE_GEOMETRY[face]
    extents = parent_box.size.as_tuple()
    in_plane = [a for a in (0, 1, 2) if a != plane_axis]
    # rows along the longer in-plane axis; ties keep the earlier axis
    if extents[in_plane[1]] > extents[in_plane[0]]:
        row_axis, col_axis = in_plane[1], in_plane[0]
    else:
        row_axis, col_axis = in_plane
    row_extent, col_extent = extents[row_axis], extents[col_axis]
    if row_extent <= 0.0 or col_extent <= 0.0:
        raise FaceDimensionError(f"face {face.value!r} of {parent_box.size} has no area")
    row_step = row_extent / block.n_rows
    col_step = col_extent / block.n_cols

    out = []
    for r, c, cell in occupied:
        entry = _resolve(cell, vocab, (r, c))
        size = _cell_size(cell, entry)
        coords = [0.0, 0.0, 0.0]
        coords[row_axis] = -row_extent / 2.0 + (r + 0.5) * row_step
        coords[col_axis] = -col_extent / 2.0 + (c + 0.5) * col_step
        if plane_axis == 2:
            standoff = size.z / 2.0  # rest on / hang under the horizontal plane
        else:
            standoff = size.x / 2.0  # back face flush with the vertical plane
        coords[plane_axis] = plane_sign * (extents[plane_axis] / 2.0 + standoff)
        yaw = normalize_yaw_rad(mount_yaw + normalize_yaw(cell.yaw_deg))
        out.append(
            AnchoredChild(
                row=r,
                col=c,
                cell=cell,
                entry=entry,
                local_box=OrientedBox(center=Vec3(*coords), size=size, yaw=yaw),
            )
        )
    return out


def _resolve(cell: CellSpec, vocab: Vocabulary, at: tuple[int, int]) -> VocabEntry:
    try:
        return vocab.lookup(cell.key, cell=at)
    except VocabError as exc:
        exc.cell = at
        raise


def _cell_size(cell: CellSpec, entry: VocabEntry) -> Vec3:
    if cell.size_override is not None:
        return Vec3(*cell.size_override)
    return entry.default_size


# ---------------------------------------------------------------------------
# whole-program compilation


class _Lowering:
    """Id counters and placement list shared by one program's compilation."""

    def __init__(self, blocks: dict[str, GridBlock], vocab: Vocabulary) -> None:
        self.blocks = blocks
        self.vocab = vocab
        self.placements: list[Placement] = []
        self._counts: dict[str, int] = {}

    def new_id(self, identifier: str) -> str:
        n = self._counts.get(identifier, 0)
        self._counts[identifier] = n + 1
        return f"{identifier}_{n}"

    def place_block(
        self,
        host: OrientedBox,
        face: Face,
        name: str,
        parent: str | None,
        depth: int,
        recorded_face: Face | WallFace | None = None,
    ) -> list[Placement]:
        """Anchor block `name` on `face` of `host` and append one placement per
        occupied cell, each followed depth-first by its own sub-layouts.
        Returns the block's own placements, without their descendants."""
        made = []
        for child in anchor_sublayout(host, face, self.blocks[name], self.vocab):
            placement = Placement(
                id=self.new_id(child.entry.identifier),
                identifier=child.entry.identifier,
                category=child.entry.category,
                box=compose_frames(host, child.local_box),
                parent=parent,
                depth=depth,
                source=Provenance(name, child.row, child.col, depth, recorded_face or face),
            )
            self.placements.append(placement)
            made.append(placement)
            for sub, sub_face in child.cell.sublayout_refs:
                self.place_block(placement.box, sub_face, sub, placement.id, depth + 1)
        return made


def compile_scene(
    p: SceneProgram, vocab: Vocabulary, config: CompilerConfig | None = None
) -> CompiledScene:
    """Deterministically lower an indoor program: root cells row-major, then each
    placement's sub-layouts depth-first in face order."""
    config = config or CompilerConfig()
    lowering = _Lowering(p.blocks, vocab)
    warnings: list[str] = []

    for i, j, cell in p.main.occupied():
        entry = _resolve(cell, vocab, (i, j))
        pid = lowering.new_id(entry.identifier)
        if entry.category in (Category.SURFACE_ITEM, Category.WALL_MOUNTED):
            warnings.append(
                f"{entry.category.value} '{pid}' placed on the root grid at ({i},{j}) "
                "rests on the floor"
            )
        box = _root_box(cell, entry, (i, j), p.grid, config.ceiling_height_m)
        lowering.placements.append(
            Placement(
                id=pid,
                identifier=entry.identifier,
                category=entry.category,
                box=box,
                parent=None,
                depth=0,
                source=Provenance("main", i, j, 0),
            )
        )
        for name, face in cell.sublayout_refs:
            lowering.place_block(box, face, name, pid, 1)

    return CompiledScene(
        grid=p.grid,
        placements=tuple(lowering.placements),
        provenance=program_hash(print_llmsli(p)),
        warnings=tuple(warnings),
    )


def _run_box(run: Run, g: float, thickness: float, height: float) -> OrientedBox:
    (i0, j0), (i1, j1) = run.cells[0], run.cells[-1]
    cx = (i0 + i1) / 2.0 * g
    cy = (j0 + j1) / 2.0 * g
    length = len(run.cells) * g
    if run.axis == 0:
        size = Vec3(length, thickness, height)
    else:
        size = Vec3(thickness, length, height)
    return OrientedBox(center=Vec3(cx, cy, height / 2.0), size=size, yaw=0.0)


# normals available to a wall cell, per run axis: axis 0 walls face +/-y,
# axis 1 walls face +/-x
_NORMALS = {0: ((0, 1), (0, -1)), 1: ((1, 0), (-1, 0))}
_NORMAL_TO_FACE = {(1, 0): Face.FRONT, (-1, 0): Face.BACK, (0, 1): Face.LEFT, (0, -1): Face.RIGHT}


def _exterior_cells(b: BuildingProgram) -> set[tuple[int, int]]:
    """Empty cells reachable from outside the grid by orthogonal flood fill."""
    n_rows, n_cols = len(b.cells), len(b.cells[0])
    blocked = {(i, j) for i, j, _ in b.structural_cells()}
    outside: set[tuple[int, int]] = set()
    stack = []
    for i in range(n_rows):
        for j in (0, n_cols - 1):
            stack.append((i, j))
    for j in range(n_cols):
        for i in (0, n_rows - 1):
            stack.append((i, j))
    while stack:
        i, j = stack.pop()
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            continue
        if (i, j) in blocked or (i, j) in outside:
            continue
        outside.add((i, j))
        stack.extend(((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)))
    return outside


def compile_building(
    b: BuildingProgram, vocab: Vocabulary, config: CompilerConfig | None = None
) -> CompiledScene:
    """Lower a building program: wall boxes per run, openings inside runs,
    wall-face sub-layouts, and an optional ceiling block."""
    g = b.cell_size_m
    runs = wall_runs(b)
    structural: list[Placement] = []
    run_ids: list[str] = []
    for idx, run in enumerate(runs):
        pid = f"wall_{idx}"
        run_ids.append(pid)
        structural.append(
            Placement(
                id=pid,
                identifier="wall",
                category=Category.STRUCTURAL,
                box=_run_box(run, g, b.wall_thickness_m, b.wall_height_m),
                parent=None,
                depth=0,
                source=Provenance("structural", run.cells[0][0], run.cells[0][1], 0),
            )
        )

    run_of: dict[tuple[int, int], int] = {}
    for idx, run in enumerate(runs):
        for cell in run.cells:
            run_of.setdefault(cell, idx)  # corner cells keep their first run

    warnings = [d.message for d in check_closure(b)]
    openings: list[Opening] = []
    kind_counts = {"door": 0, "window": 0}
    lowering = _Lowering(b.blocks, vocab)
    outside = _exterior_cells(b)
    n_rows, n_cols = len(b.cells), len(b.cells[0])

    for i, j, cell in b.structural_cells():
        run_idx = run_of[(i, j)]
        if cell.symbol in (StructSymbol.DOOR, StructSymbol.WINDOW):
            kind = "door" if cell.symbol is StructSymbol.DOOR else "window"
            params = b.door if kind == "door" else b.window
            n = kind_counts[kind]
            kind_counts[kind] = n + 1
            openings.append(
                Opening(
                    id=f"{kind}_{n}",
                    kind=kind,
                    wall=run_ids[run_idx],
                    center=Vec3(i * g, j * g, params.sill_m + params.height_m / 2.0),
                    width_m=params.width_m,
                    height_m=params.height_m,
                    sill_m=params.sill_m,
                    cell=(i, j),
                )
            )
            continue
        if not cell.sublayout_refs:
            continue

        run = runs[run_idx]
        seg_size = (
            Vec3(g, b.wall_thickness_m, b.wall_height_m)
            if run.axis == 0
            else Vec3(b.wall_thickness_m, g, b.wall_height_m)
        )
        segment = OrientedBox(
            center=Vec3(i * g, j * g, b.wall_height_m / 2.0), size=seg_size, yaw=0.0
        )
        pos_n, neg_n = _NORMALS[run.axis]
        sides = {}
        for normal in (pos_n, neg_n):
            ni, nj = i + normal[0], j + normal[1]
            in_grid = 0 <= ni < n_rows and 0 <= nj < n_cols
            if not in_grid or (ni, nj) in outside:
                sides[normal] = "outer"
            elif b.cells[ni][nj] is None:
                sides[normal] = "inner"
            else:
                sides[normal] = "wall"
        if sides[pos_n] == "wall" and sides[neg_n] == "wall":
            face_normals = {WallFace.INNER: pos_n, WallFace.OUTER: neg_n}
            warnings.append(
                f"wall cell ({i},{j}) is enclosed by walls; inner face defaults to the "
                "positive side"
            )
        elif sides[pos_n] == sides[neg_n]:  # both interior or both exterior: a stub
            face_normals = {WallFace.INNER: pos_n, WallFace.OUTER: neg_n}
            warnings.append(
                f"wall cell ({i},{j}) has no unambiguous inner side; defaulting to the "
                "positive side"
            )
        elif sides[pos_n] == "inner" or sides[neg_n] == "outer":
            face_normals = {WallFace.INNER: pos_n, WallFace.OUTER: neg_n}
        else:
            face_normals = {WallFace.INNER: neg_n, WallFace.OUTER: pos_n}

        for name, wall_face in cell.sublayout_refs:
            face = _NORMAL_TO_FACE[face_normals[wall_face]]
            lowering.place_block(segment, face, name, run_ids[run_idx], 1, wall_face)

    if b.ceiling_block is not None:
        slab = OrientedBox(
            center=Vec3(
                (n_rows - 1) * g / 2.0,
                (n_cols - 1) * g / 2.0,
                b.wall_height_m + _CEILING_SLAB_M / 2.0,
            ),
            size=Vec3(n_rows * g, n_cols * g, _CEILING_SLAB_M),
            yaw=0.0,
        )
        for placement in lowering.place_block(slab, Face.BOTTOM, b.ceiling_block, None, 0):
            if placement.category is not Category.CEILING_MOUNTED:
                warnings.append(
                    f"{placement.category.value} '{placement.id}' hangs from the ceiling plane"
                )

    return CompiledScene(
        grid=b.grid,
        placements=tuple(lowering.placements),
        structural=tuple(structural),
        openings=tuple(openings),
        provenance=program_hash(print_llmslb(b)),
        warnings=tuple(warnings),
    )


def parse_source(text: str) -> SceneProgram | BuildingProgram:
    """Parse either language, dispatched on the header keyword."""
    head = text.lstrip().split(None, 1)[0] if text.strip() else ""
    return parse_llmslb(text) if head == "llmslb" else parse_llmsli(text)


def compile_source(
    text: str, vocab: Vocabulary, config: CompilerConfig | None = None
) -> tuple[SceneProgram | BuildingProgram, CompiledScene]:
    """Parse and compile either language, dispatched on the header keyword."""
    program = parse_source(text)
    if isinstance(program, BuildingProgram):
        return program, compile_building(program, vocab, config)
    return program, compile_scene(program, vocab, config)
