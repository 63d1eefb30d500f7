"""Independent collision and containment oracle for root footprints.

Built from the program text and the vocabulary table alone, without
importing spatialgrammar, so a fault in the toolchain's parser, compiler or
validator cannot hide in its own check.  The rules follow LANGUAGE.md:

- root cell (i, j) is centred at world (i*g, j*g);
- the yaw of a cell token ``KEY@DEG`` turns the footprint counter-clockwise;
- ``[LxWxH]`` overrides the table size, L along the facing (+x) axis;
- ceiling_mounted roots hang with their top at the 2.6 m ceiling plane, all
  other roots stand on the floor;
- the floor rectangle starts at (-g/2, -g/2) and spans ``floor=XxYm`` when the
  header gives it, else rows*g by cols*g.

Two roots collide when they overlap by more than eps in height and on each
of the four in-plane face normals (corner projection).  Only pairs whose
bounding circles meet are tested, found through a uniform hash grid, so the
cost grows linearly with the number of roots at a fixed density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CEILING_M = 2.6
EPS = 1e-6
BOUNDS_SLACK = 1e-9


def read_vocabulary(path: str) -> dict:
    """Map every code (int) and identifier (str) to (identifier, category, (L, W, H))."""
    table: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            code, ident, category, lx, ly, lz = line.split()
            entry = (ident, category, (float(lx), float(ly), float(lz)))
            table[ident] = entry
            if code != "-":
                table[int(code)] = entry
    return table


@dataclass(frozen=True)
class Root:
    cell: tuple[int, int]
    identifier: str
    cx: float
    cy: float
    yaw: float
    hx: float
    hy: float
    z_lo: float
    z_hi: float

    def corners(self) -> list[tuple[float, float]]:
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return [
            (self.cx + lx * c - ly * s, self.cy + lx * s + ly * c)
            for lx, ly in ((-self.hx, -self.hy), (self.hx, -self.hy),
                           (self.hx, self.hy), (-self.hx, self.hy))
        ]


@dataclass(frozen=True)
class Room:
    g: float
    floor: tuple[float, float]
    roots: tuple[Root, ...]


def _length(text: str) -> float:
    if text.endswith("cm"):
        return float(text[:-2]) / 100.0
    return float(text.rstrip("m"))


def _cell(token: str) -> tuple[str, int, tuple[float, float, float] | None]:
    """(key, yaw degrees, size override) of one cell token; refs are ignored."""
    token = token.split("(", 1)[0]
    size = None
    if "[" in token:
        token, dims = token.split("[", 1)
        size = tuple(float(v) for v in dims.rstrip("]").replace("×", "x").split("x"))
    yaw = 0
    if "@" in token:
        token, deg = token.split("@", 1)
        yaw = int(deg)
    return token, yaw, size


def read_room(text: str, vocab: dict) -> Room:
    """Root footprints of an llmsli program that parses."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    header = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    g = _length(header["grid"])
    start = lines.index("main:") + 1
    grid = []
    for ln in lines[start:]:
        if ln.endswith(":"):
            break
        grid.append(ln.split())
    if "floor" in header:
        fx, fy = header["floor"].rstrip("m").replace("×", "x").split("x")
        floor = (float(fx), float(fy))
    else:
        floor = (len(grid) * g, len(grid[0]) * g)
    roots = []
    for i, row in enumerate(grid):
        for j, token in enumerate(row):
            if token == "0":
                continue
            key, yaw_deg, size = _cell(token)
            ident, category, table_size = vocab[int(key) if key.isdigit() else key]
            lx, ly, lz = size or table_size
            z_lo = CEILING_M - lz if category == "ceiling_mounted" else 0.0
            roots.append(Root(
                cell=(i, j), identifier=ident, cx=i * g, cy=j * g,
                yaw=math.radians(yaw_deg % 360), hx=lx / 2.0, hy=ly / 2.0,
                z_lo=z_lo, z_hi=z_lo + lz,
            ))
    return Room(g=g, floor=floor, roots=tuple(roots))


def _projected_overlap(pa, pb, ax: float, ay: float) -> float:
    ta = [x * ax + y * ay for x, y in pa]
    tb = [x * ax + y * ay for x, y in pb]
    return min(max(ta), max(tb)) - max(min(ta), min(tb))


def overlaps(a: Root, b: Root, eps: float = EPS) -> bool:
    """Corner-projection test on the four face normals plus the height interval."""
    if min(a.z_hi, b.z_hi) - max(a.z_lo, b.z_lo) <= eps:
        return False
    pa, pb = a.corners(), b.corners()
    for yaw in (a.yaw, b.yaw):
        c, s = math.cos(yaw), math.sin(yaw)
        for ax, ay in ((c, s), (-s, c)):
            if _projected_overlap(pa, pb, ax, ay) <= eps:
                return False
    return True


def colliding_pairs(room: Room, eps: float = EPS) -> set[frozenset]:
    """Cell pairs of overlapping roots; each pair is a frozenset of two cells."""
    if not room.roots:
        return set()
    radius = [math.hypot(r.hx, r.hy) for r in room.roots]
    bucket = 2.0 * max(radius)
    buckets: dict[tuple[int, int], list[int]] = {}
    for k, r in enumerate(room.roots):
        buckets.setdefault((math.floor(r.cx / bucket), math.floor(r.cy / bucket)), []).append(k)
    out = set()
    for (bx, by), members in buckets.items():
        near = [k for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for k in buckets.get((bx + dx, by + dy), ())]
        for k in members:
            a = room.roots[k]
            for m in near:
                if m <= k:
                    continue
                b = room.roots[m]
                if math.hypot(a.cx - b.cx, a.cy - b.cy) > radius[k] + radius[m]:
                    continue
                if overlaps(a, b, eps):
                    out.add(frozenset((a.cell, b.cell)))
    return out


def outside_floor(room: Room) -> list[tuple[int, int]]:
    """Cells of roots with a footprint corner outside the floor rectangle."""
    lo_x = lo_y = -room.g / 2.0
    hi_x, hi_y = lo_x + room.floor[0], lo_y + room.floor[1]
    out = []
    for r in room.roots:
        for x, y in r.corners():
            if not (lo_x - BOUNDS_SLACK <= x <= hi_x + BOUNDS_SLACK
                    and lo_y - BOUNDS_SLACK <= y <= hi_y + BOUNDS_SLACK):
                out.append(r.cell)
                break
    return out
