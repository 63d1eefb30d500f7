"""Scene serialization: canonical JSON, OBJ box meshes, and a BEV SVG plot.

The JSON form is the interchange format and is byte-stable: keys sorted
and ASCII-escaped, string values raw UTF-8, floats rendered with "%.6f",
negative zero normalized.  NaN and infinities are never written; a value
holding one raises ValueError.  Schema:

    {grid: {cell_size, rows, cols},
     placements: [{id, identifier, center:[x,y,z], size:[l,w,h], yaw_rad,
                   parent, depth, cell:[i,j]}],
     structural: [... same row shape ...],
     openings: [{id, kind, wall, center:[x,y,z], width, height, sill,
                 cell:[i,j]}]}

The loader takes only the schema's scalar types: finite JSON numbers (never
true, false or a string) for lengths, yaw and coordinates, and JSON integers
for rows, cols and cells.

OBJ and SVG are one-way debug views; only JSON reimports.
"""

from __future__ import annotations

import json
import math

from .errors import SchemaError, UnsupportedFormat, VocabError
from .geometry import GridSpec, OrientedBox, Vec3, box_corners
from .compiler import CompiledScene, Opening, Placement, Provenance
from .llmsli import Face
from .vocab import Category, Vocabulary

FORMATS = ("json", "obj", "svg")

# face-contact slack when reconstructing support links from plain geometry
_REIMPORT_FACE_TOL = 1e-3


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    if s[-1] > "9":  # "nan", "inf" or "-inf": a finite number ends in a digit
        raise ValueError(f"cannot serialize the non-finite number {x!r}")
    return "0.000000" if s == "-0.000000" else s


# the C encoders behind json.dumps(s, ensure_ascii=False) and json.dumps(s)
_encode_str = json.encoder.encode_basestring
_encode_key = json.encoder.encode_basestring_ascii


def canonical_json(value) -> str:
    """Compact JSON with sorted keys and fixed-width floats.

    Keys are ASCII-escaped and string values are raw UTF-8.  Raises
    ValueError for a NaN or infinite float and TypeError for a dict key that
    is not a string or a value JSON has no form for.
    """
    out: list[str] = []
    _write(value, out.append)
    return "".join(out)


def _write(v, emit) -> None:
    t = type(v)
    if t is str:
        emit(_encode_str(v))
    elif t is float:
        emit(_fmt(v))
    elif t is list or t is tuple:
        _write_list(v, emit)
    elif t is dict:
        _write_dict(v, _key_plan(v), emit)
    elif t is int:
        emit(int.__repr__(v))
    elif v is None:
        emit("null")
    elif v is True:
        emit("true")
    elif v is False:
        emit("false")
    # subclasses, such as str-valued Enums, take the generic checks
    elif isinstance(v, int):
        emit(str(v))
    elif isinstance(v, float):
        emit(_fmt(v))
    elif isinstance(v, str):
        emit(_encode_str(v))
    elif isinstance(v, dict):
        _write_dict(v, _key_plan(v), emit)
    elif isinstance(v, (list, tuple)):
        _write_list(v, emit)
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


def _key_plan(d: dict) -> list[tuple[str, str]]:
    """(key, the text written before its value) for each key of d, in sorted order."""
    for k in d:
        if not isinstance(k, str):
            raise TypeError(f"cannot serialize the dict key {k!r}: JSON keys are strings")
    return [(k, ("," if i else "{") + _encode_key(k) + ":") for i, k in enumerate(sorted(d))]


def _write_dict(d: dict, plan: list[tuple[str, str]], emit) -> None:
    if not plan:
        emit("{}")
        return
    for k, before in plan:
        emit(before)
        _write(d[k], emit)
    emit("}")


def _write_list(items, emit) -> None:
    if not items:
        emit("[]")
        return
    sep = "["
    keys = plan = None
    for item in items:
        emit(sep)
        sep = ","
        if type(item) is dict:
            # rows of one shape, such as a report's collisions, share one key order;
            # each row is joined on its own, so the output list holds one string
            # per row and peak memory stays near the size of the result
            if item.keys() != keys:
                keys, plan = item.keys(), _key_plan(item)
            row: list[str] = []
            _write_dict(item, plan, row.append)
            emit("".join(row))
        else:
            _write(item, emit)
    emit("]")


def _placement_row(p: Placement) -> dict:
    return {
        "id": p.id,
        "identifier": p.identifier,
        "center": list(p.box.center.as_tuple()),
        "size": list(p.box.size.as_tuple()),
        "yaw_rad": p.box.yaw,
        "parent": p.parent,
        "depth": p.depth,
        "cell": [p.source.row, p.source.col],
    }


def _opening_row(o: Opening) -> dict:
    return {
        "id": o.id,
        "kind": o.kind,
        "wall": o.wall,
        "center": list(o.center.as_tuple()),
        "width": float(o.width_m),
        "height": float(o.height_m),
        "sill": float(o.sill_m),
        "cell": list(o.cell),
    }


def scene_to_dict(s: CompiledScene) -> dict:
    """The scene JSON as plain data: canonical_json of it plus a newline is
    export_scene(s, "json")."""
    return {
        "grid": {
            "cell_size": float(s.grid.cell_size_m),
            "rows": s.grid.rows,
            "cols": s.grid.cols,
        },
        "placements": [_placement_row(p) for p in s.placements],
        "structural": [_placement_row(p) for p in s.structural],
        "openings": [_opening_row(o) for o in s.openings],
    }


# The scene JSON writers below lay each row out in the sorted key order of the
# schema, so they write what canonical_json(scene_to_dict(s)) does.

def _placement_json(p: Placement) -> str:
    b = p.box
    c, z = b.center, b.size
    parent = "null" if p.parent is None else _encode_str(p.parent)
    return (
        f'{{"cell":[{p.source.row},{p.source.col}],'
        f'"center":[{_fmt(c.x)},{_fmt(c.y)},{_fmt(c.z)}],"depth":{p.depth},'
        f'"id":{_encode_str(p.id)},"identifier":{_encode_str(p.identifier)},"parent":{parent},'
        f'"size":[{_fmt(z.x)},{_fmt(z.y)},{_fmt(z.z)}],"yaw_rad":{_fmt(b.yaw)}}}'
    )


def _opening_json(o: Opening) -> str:
    c = o.center
    row, col = o.cell
    return (
        f'{{"cell":[{row},{col}],"center":[{_fmt(c.x)},{_fmt(c.y)},{_fmt(c.z)}],'
        f'"height":{_fmt(o.height_m)},"id":{_encode_str(o.id)},"kind":{_encode_str(o.kind)},'
        f'"sill":{_fmt(o.sill_m)},"wall":{_encode_str(o.wall)},"width":{_fmt(o.width_m)}}}'
    )


def _scene_json(s: CompiledScene) -> str:
    g = s.grid
    return (
        f'{{"grid":{{"cell_size":{_fmt(g.cell_size_m)},"cols":{g.cols},"rows":{g.rows}}},'
        f'"openings":[{",".join(map(_opening_json, s.openings))}],'
        f'"placements":[{",".join(map(_placement_json, s.placements))}],'
        f'"structural":[{",".join(map(_placement_json, s.structural))}]}}\n'
    )


def export_scene(s: CompiledScene, format: str = "json") -> bytes:
    if format == "json":
        return _scene_json(s).encode("utf-8")
    if format == "obj":
        return _export_obj(s).encode("utf-8")
    if format == "svg":
        return _export_svg(s).encode("utf-8")
    raise UnsupportedFormat(f"unknown export format {format!r}; expected one of {FORMATS}")


def load_scene_json(data: bytes | str, vocab: Vocabulary | None = None) -> CompiledScene:
    """Rebuild a scene from its JSON export.

    Categories come from the vocabulary when one is supplied; faces are not in
    the schema, so top/bottom support links are re-inferred from face contact.
    Program provenance does not survive the trip.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer with more digits than int() converts
        raise SchemaError(f"scene JSON holds a number that cannot be read: {exc}") from None
    try:
        return _scene_from_doc(doc, vocab)
    except KeyError as exc:
        raise SchemaError(f"scene JSON has no {exc.args[0]!r} field") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"scene JSON does not match the export schema: {exc}") from None


def _scene_from_doc(doc: dict, vocab: Vocabulary | None) -> CompiledScene:
    grid = GridSpec(
        cell_size_m=_number(doc["grid"]["cell_size"], "'cell_size'"),
        rows=_index(doc["grid"]["rows"], "'rows'"),
        cols=_index(doc["grid"]["cols"], "'cols'"),
    )
    placements = [
        _row_to_placement(row, vocab, structural=False) for row in _list(doc, "placements")
    ]
    structural = [
        _row_to_placement(row, vocab, structural=True) for row in _list(doc, "structural")
    ]
    entries = placements + structural
    by_id: dict[str, Placement] = {}
    for p in entries:
        if p.id in by_id:
            raise SchemaError(f"scene JSON has two entries with id {p.id!r}")
        by_id[p.id] = p
    for p in entries:
        if p.parent is not None and p.parent not in by_id:
            raise SchemaError(f"scene JSON entry {p.id!r} has parent {p.parent!r}, "
                              "which is not the id of another entry")
        # depth 0 at a root and one more than the parent's below it: no cycle passes
        want = 0 if p.parent is None else by_id[p.parent].depth + 1
        if p.depth != want:
            raise SchemaError(f"scene JSON entry {p.id!r} has depth {p.depth}, but its "
                              f"parent {p.parent!r} puts it at depth {want}")
    placements = [_infer_face(p, by_id) for p in placements]
    walls = {p.id for p in structural}
    openings = tuple(_row_to_opening(row, walls) for row in _list(doc, "openings"))
    return CompiledScene(
        grid=grid,
        placements=tuple(placements),
        structural=tuple(structural),
        openings=openings,
    )


def _list(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise SchemaError(f"scene JSON {key!r} must be a list, not {type(value).__name__}")
    return value


def _number(value, what: str) -> float:
    """A finite JSON number as a float; true, false and strings are not numbers."""
    if type(value) is float or type(value) is int:
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise SchemaError(f"scene JSON {what} must be a finite number, got {value!r}")


def _index(value, what: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"scene JSON {what} must be an integer, got {value!r}")
    return value


def _vec3(value, what: str) -> Vec3:
    return Vec3(*(_number(v, f"{what} entry") for v in value))


def _cell(value) -> tuple[int, int]:
    row, col = value
    return _index(row, "'cell' entry"), _index(col, "'cell' entry")


def _row_to_placement(row: dict, vocab: Vocabulary | None, structural: bool) -> Placement:
    for key in ("id", "identifier"):
        if not isinstance(row[key], str):
            raise SchemaError(f"scene JSON {key!r} must be a string, got {row[key]!r}")
    depth = row["depth"]
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise SchemaError(f"scene JSON 'depth' must be an integer of at least 0, got {depth!r}")
    identifier = row["identifier"]
    category = Category.STRUCTURAL
    if not structural:
        category = Category.FLOOR_FURNITURE
        if vocab is not None:
            try:
                category = vocab.lookup(identifier).category
            except VocabError:
                pass  # keep the floor default for identifiers outside the table
    return Placement(
        id=row["id"],
        identifier=identifier,
        category=category,
        box=OrientedBox(
            center=_vec3(row["center"], "'center'"),
            size=_vec3(row["size"], "'size'"),
            yaw=_number(row["yaw_rad"], "'yaw_rad'"),
        ),
        parent=row["parent"],
        depth=depth,
        source=Provenance("import", *_cell(row["cell"]), depth),
    )


def _row_to_opening(row: dict, walls: set[str]) -> Opening:
    oid, kind, wall = row["id"], row["kind"], row["wall"]
    if not isinstance(oid, str):
        raise SchemaError(f"scene JSON opening 'id' must be a string, got {oid!r}")
    if kind not in ("door", "window"):
        raise SchemaError(f"scene JSON opening {oid!r} has kind {kind!r}, not door or window")
    if not isinstance(wall, str) or wall not in walls:
        raise SchemaError(f"scene JSON opening {oid!r} names wall {wall!r}, "
                          "which is not the id of a structural entry")
    width, height, sill = (_number(row[k], f"opening {k!r}") for k in ("width", "height", "sill"))
    if not (width > 0 and height > 0 and sill >= 0):
        raise SchemaError(f"scene JSON opening {oid!r} needs a finite width and height above 0 "
                          "and a finite sill of at least 0")
    return Opening(
        id=oid,
        kind=kind,
        wall=wall,
        center=_vec3(row["center"], "opening 'center'"),
        width_m=width,
        height_m=height,
        sill_m=sill,
        cell=_cell(row["cell"]),
    )


def _infer_face(p: Placement, by_id: dict[str, Placement]) -> Placement:
    if p.parent is None:
        return p
    parent = by_id[p.parent]
    face = None
    if abs(p.box.bottom_z - parent.box.top_z) <= _REIMPORT_FACE_TOL:
        face = Face.TOP
    elif abs(p.box.top_z - parent.box.bottom_z) <= _REIMPORT_FACE_TOL:
        face = Face.BOTTOM
    if face is None:
        return p
    source = Provenance(p.source.block, p.source.row, p.source.col, p.source.depth, face)
    return Placement(p.id, p.identifier, p.category, p.box, p.parent, p.depth, source)


# ---------------------------------------------------------------------------
# OBJ

# triangle fan over box_corners() order: 0-3 bottom CCW, 4-7 top CCW
_BOX_TRIANGLES = (
    (0, 3, 2), (0, 2, 1),  # bottom, facing -z
    (4, 5, 6), (4, 6, 7),  # top
    (1, 2, 6), (1, 6, 5),  # +x
    (0, 4, 7), (0, 7, 3),  # -x
    (2, 3, 7), (2, 7, 6),  # +y
    (0, 1, 5), (0, 5, 4),  # -y
)

_FRAME_BAR_M = 0.05


def _obj_box(lines: list[str], name: str, box: OrientedBox, offset: int) -> int:
    lines.append(f"g {name}")
    for v in box_corners(box):
        lines.append(f"v {_fmt(v.x)} {_fmt(v.y)} {_fmt(v.z)}")
    for a, b, c in _BOX_TRIANGLES:
        lines.append(f"f {offset + a + 1} {offset + b + 1} {offset + c + 1}")
    return offset + 8


def _opening_frame_boxes(o: Opening, walls: dict[str, Placement]) -> list[OrientedBox]:
    wall = walls.get(o.wall)
    # opening plane spans the wall's long axis; frame bars protrude past the faces
    along_x = wall is None or wall.box.size.x >= wall.box.size.y
    depth = (wall.box.size.y if along_x else wall.box.size.x) + 0.02 if wall else 0.22
    bar = _FRAME_BAR_M
    w, h = o.width_m, o.height_m
    c = o.center

    def make(du: float, dz: float, su: float, sz: float) -> OrientedBox:
        dx, dy = (du, 0.0) if along_x else (0.0, du)
        sx, sy = (su, depth) if along_x else (depth, su)
        return OrientedBox(
            center=Vec3(c.x + dx, c.y + dy, c.z + dz),
            size=Vec3(sx, sy, sz),
            yaw=0.0,
        )

    return [
        make(0.0, -(h + bar) / 2.0, w + 2 * bar, bar),  # sill bar
        make(0.0, (h + bar) / 2.0, w + 2 * bar, bar),  # head bar
        make(-(w + bar) / 2.0, 0.0, bar, h),  # jambs
        make((w + bar) / 2.0, 0.0, bar, h),
    ]


def _export_obj(s: CompiledScene) -> str:
    lines = ["# spatialgrammar box scene"]
    offset = 0
    walls = {p.id: p for p in s.structural}
    for p in s.structural + s.placements:
        offset = _obj_box(lines, p.id, p.box, offset)
    for o in s.openings:
        for k, box in enumerate(_opening_frame_boxes(o, walls)):
            offset = _obj_box(lines, f"{o.id}_frame_{k}", box, offset)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG

_SVG_SCALE = 60.0  # px per meter
_SVG_PAD = 40.0

_CATEGORY_FILL = {
    Category.FLOOR_FURNITURE: "#7fb3d5",
    Category.SURFACE_ITEM: "#f5b041",
    Category.WALL_MOUNTED: "#76d7c4",
    Category.CEILING_MOUNTED: "#c39bd3",
    Category.STRUCTURAL: "#7b7d7d",
}


def _export_svg(s: CompiledScene) -> str:
    g = s.grid.cell_size_m
    all_p = list(s.structural) + list(s.placements)
    grid_lo = -g / 2.0
    grid_hi_x = (s.grid.rows - 0.5) * g
    grid_hi_y = (s.grid.cols - 0.5) * g
    xs = [grid_lo, grid_hi_x]
    ys = [grid_lo, grid_hi_y]
    for p in all_p:
        for cx, cy in p.box.footprint_corners():
            xs.append(cx)
            ys.append(cy)
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)

    def sx(x: float) -> float:
        return _SVG_PAD + (x - min_x) * _SVG_SCALE

    def sy(y: float) -> float:
        # world +y grows to the left of the page so the BEV reads like the grid
        return _SVG_PAD + (max_y - y) * _SVG_SCALE

    width = 2 * _SVG_PAD + (max_x - min_x) * _SVG_SCALE
    height = 2 * _SVG_PAD + (max_y - min_y) * _SVG_SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for i in range(s.grid.rows + 1):
        x = (i - 0.5) * g
        out.append(
            f'<line x1="{_fmt(sx(x))}" y1="{_fmt(sy(grid_lo))}" x2="{_fmt(sx(x))}" '
            f'y2="{_fmt(sy(grid_hi_y))}" stroke="#dddddd" stroke-width="1"/>'
        )
    for j in range(s.grid.cols + 1):
        y = (j - 0.5) * g
        out.append(
            f'<line x1="{_fmt(sx(grid_lo))}" y1="{_fmt(sy(y))}" '
            f'x2="{_fmt(sx(grid_hi_x))}" y2="{_fmt(sy(y))}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    for p in sorted(all_p, key=lambda q: (q.depth, q.id)):
        pts = " ".join(
            f"{_fmt(sx(cx))},{_fmt(sy(cy))}" for cx, cy in p.box.footprint_corners()
        )
        fill = _CATEGORY_FILL[p.category]
        out.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.8" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        hx, hy = p.box.facing()
        cx, cy = p.box.center.x, p.box.center.y
        tip_x, tip_y = cx + hx * p.box.size.x * 0.45, cy + hy * p.box.size.x * 0.45
        out.append(
            f'<line x1="{_fmt(sx(cx))}" y1="{_fmt(sy(cy))}" x2="{_fmt(sx(tip_x))}" '
            f'y2="{_fmt(sy(tip_y))}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(sx(cx))}" y="{_fmt(sy(cy))}" font-size="10" '
            f'text-anchor="middle" font-family="monospace">{p.id}</text>'
        )
    for o in s.openings:
        out.append(
            f'<circle cx="{_fmt(sx(o.center.x))}" cy="{_fmt(sy(o.center.y))}" r="5" '
            f'fill="{"#e74c3c" if o.kind == "door" else "#3498db"}"/>'
        )
        out.append(
            f'<text x="{_fmt(sx(o.center.x) + 8.0)}" y="{_fmt(sy(o.center.y))}" '
            f'font-size="9" font-family="monospace">{o.id}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
