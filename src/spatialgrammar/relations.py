"""Machine-checkable spatial relation predicates between two boxes.

These definitions are normative for the whole toolchain: the data generator
places objects so they hold and the evaluator re-checks them.

- facing(a, b): the bearing from a to b deviates from a's facing direction
  by at most 45 degrees.
- in_front_of(a, b) / behind(a, b): a lies inside the 45-degree cone along
  b's facing direction (respectively its opposite).
- left_of / right_of(a, b): a lies strictly in b's left (respectively right)
  half-plane, within two grid cells of b.
- beside(a, b): left_of or right_of.
- on_top(a, b): a rests on b's top plane with its center over b's footprint.

All tests use BEV centers; coincident centers satisfy no directional
relation.
"""

from __future__ import annotations

import math

from .compiler import CompiledScene, Placement
from .errors import UnknownRelation
from .geometry import OrientedBox

_CONE_HALF_ANGLE = math.pi / 4.0 + 1e-9
_BESIDE_CAP_CELLS = 2.0
_ON_TOP_TOL = 1e-3


def _bearing_offset(from_yaw: float, dx: float, dy: float) -> float | None:
    """Absolute angle between a facing direction and the offset vector."""
    if math.hypot(dx, dy) < 1e-12:
        return None
    angle = math.atan2(dy, dx) - from_yaw
    angle = math.atan2(math.sin(angle), math.cos(angle))
    return abs(angle)


def facing(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    off = _bearing_offset(a.yaw, b.center.x - a.center.x, b.center.y - a.center.y)
    return off is not None and off <= _CONE_HALF_ANGLE


def in_front_of(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    off = _bearing_offset(b.yaw, a.center.x - b.center.x, a.center.y - b.center.y)
    return off is not None and off <= _CONE_HALF_ANGLE


def behind(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    off = _bearing_offset(b.yaw + math.pi, a.center.x - b.center.x, a.center.y - b.center.y)
    return off is not None and off <= _CONE_HALF_ANGLE


def _lateral(a: OrientedBox, b: OrientedBox, g: float, sign: float) -> bool:
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    if math.hypot(dx, dy) > _BESIDE_CAP_CELLS * g + 1e-9:
        return False
    # b's left direction is its facing rotated +90 degrees
    lx = -math.sin(b.yaw) * sign
    ly = math.cos(b.yaw) * sign
    return dx * lx + dy * ly > 1e-9


def left_of(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    return _lateral(a, b, g, 1.0)


def right_of(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    return _lateral(a, b, g, -1.0)


def beside(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    return left_of(a, b, g) or right_of(a, b, g)


def on_top(a: OrientedBox, b: OrientedBox, g: float) -> bool:
    if abs(a.bottom_z - b.top_z) > _ON_TOP_TOL:
        return False
    # center of a inside b's footprint, in b's frame
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    c, s = math.cos(-b.yaw), math.sin(-b.yaw)
    u = dx * c - dy * s
    v = dx * s + dy * c
    return abs(u) <= b.size.x / 2.0 + 1e-9 and abs(v) <= b.size.y / 2.0 + 1e-9


RELATIONS = {
    "facing": facing,
    "in_front_of": in_front_of,
    "behind": behind,
    "left_of": left_of,
    "right_of": right_of,
    "beside": beside,
    "on_top": on_top,
}


def resolve(s: CompiledScene, ref: str) -> Placement | None:
    """Find a placement by id, falling back to the first one with the
    matching identifier."""
    for p in s.all_placements():
        if p.id == ref:
            return p
    for p in s.all_placements():
        if p.identifier == ref:
            return p
    return None


def check_relation(s: CompiledScene, relation: str, subject: str, obj: str) -> bool:
    """False when either participant is missing; raises on unknown names."""
    if relation not in RELATIONS:
        raise UnknownRelation(
            f"unknown relation {relation!r}; expected one of {sorted(RELATIONS)}"
        )
    a = resolve(s, subject)
    b = resolve(s, obj)
    if a is None or b is None or a.id == b.id:
        return False
    return RELATIONS[relation](a.box, b.box, s.grid.cell_size_m)
