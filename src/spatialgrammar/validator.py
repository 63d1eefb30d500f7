"""Geometric verification: collisions, support, bounds, and the report.

This module detects and reports; it never moves anything.  All boxes are
yaw-only, so the separating-axis test needs exactly five candidate axes:
the vertical axis plus both boxes' in-plane face normals.  Face contact is
not a collision; a pair collides only when it overlaps by more than eps on
every axis.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .compiler import CompiledScene, Placement
from .errors import ConfigError
from .geometry import GridSpec, OrientedBox
from .llmsli import Face
from .vocab import Category

EPS_DEFAULT = 1e-6
TOL_DEFAULT = 1e-6


@dataclass(frozen=True)
class ValidatorConfig:
    eps: float = EPS_DEFAULT
    tol: float = TOL_DEFAULT
    floor_extent_m: tuple[float, float] | None = None  # overrides the program's floor=

    def __post_init__(self) -> None:
        _check_tolerance("eps", self.eps)
        _check_tolerance("tol", self.tol)


@dataclass(frozen=True)
class CollisionDiagnostic:
    a_id: str
    b_id: str
    a_cell: tuple[int, int]
    b_cell: tuple[int, int]
    penetration_depth_m: float
    message: str


@dataclass(frozen=True)
class SupportDiagnostic:
    id: str
    parent: str | None
    gap_m: float
    message: str


@dataclass(frozen=True)
class BoundsDiagnostic:
    id: str
    corner: tuple[float, float]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    collisions: tuple[CollisionDiagnostic, ...]
    support_failures: tuple[SupportDiagnostic, ...]
    bounds_violations: tuple[BoundsDiagnostic, ...]
    warnings: tuple[str, ...]
    cr_obj_percent: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "collisions": [
                {
                    "a_id": c.a_id,
                    "b_id": c.b_id,
                    "a_cell": list(c.a_cell),
                    "b_cell": list(c.b_cell),
                    "penetration_depth_m": c.penetration_depth_m,
                    "message": c.message,
                }
                for c in self.collisions
            ],
            "support_failures": [
                {"id": d.id, "parent": d.parent, "gap_m": d.gap_m, "message": d.message}
                for d in self.support_failures
            ],
            "bounds_violations": [
                {"id": d.id, "corner": list(d.corner), "message": d.message}
                for d in self.bounds_violations
            ],
            "warnings": list(self.warnings),
            "cr_obj_percent": self.cr_obj_percent,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# intersection

# Boxes whose ground-plane AABBs are apart by more than this are disjoint by
# a margin far above the rounding of the separating-axis test, so dropping
# them changes no verdict at any eps >= 0.  floor_rect() allows the same slack.
_SLACK = 1e-9

# (bottom_z, top_z, corners, face axes, min_x, max_x, min_y, max_y)
Footprint = tuple


def footprint(box: OrientedBox) -> Footprint:
    """Everything the collision test reads of one box, computed once per box."""
    corners = box.footprint_corners()
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    xs = [x for x, _ in corners]
    ys = [y for _, y in corners]
    return (
        box.bottom_z,
        box.top_z,
        corners,
        ((c, s), (-s, c)),
        min(xs),
        max(xs),
        min(ys),
        max(ys),
    )


def footprint_intersect(a: Footprint, b: Footprint, eps: float = EPS_DEFAULT) -> float | None:
    """obb_intersect on boxes already reduced by footprint()."""
    depth = min(a[1], b[1]) - max(a[0], b[0])
    if depth <= eps:
        return None
    a_corners, b_corners = a[2], b[2]
    for ax, ay in a[3] + b[3]:
        a_t = [cx * ax + cy * ay for cx, cy in a_corners]
        b_t = [cx * ax + cy * ay for cx, cy in b_corners]
        overlap = min(max(a_t), max(b_t)) - max(min(a_t), min(b_t))
        if overlap <= eps:
            return None
        depth = min(depth, overlap)
    return depth


def obb_intersect(a: OrientedBox, b: OrientedBox, eps: float = EPS_DEFAULT) -> float | None:
    """Penetration depth when the boxes overlap by more than eps on every
    candidate axis, else None.  Exact for yaw-only boxes."""
    return footprint_intersect(footprint(a), footprint(b), eps)


def aabbs_apart(a: Footprint, b: Footprint) -> bool:
    """True when the ground-plane AABBs are apart by more than _SLACK on x or
    y; footprint_intersect() then returns None at every eps >= 0."""
    # y first: the pairs _candidate_pairs asks about already meet on x
    return not (
        a[6] <= b[7] + _SLACK
        and b[6] <= a[7] + _SLACK
        and a[4] <= b[5] + _SLACK
        and b[4] <= a[5] + _SLACK
    )


def _candidate_pairs(prints: list[Footprint]) -> list[tuple[int, int]]:
    """Sweep and prune: every (i, j), i < j, whose AABBs are not apart, in
    ascending order."""
    order = sorted(range(len(prints)), key=lambda k: prints[k][4])
    active: list[tuple[float, int, Footprint]] = []  # (max_x + _SLACK, index, footprint)
    pairs: list[tuple[int, int]] = []
    for j in order:
        b = prints[j]
        active = [e for e in active if b[4] <= e[0]]
        for _, i, a in active:
            if not aabbs_apart(a, b):
                pairs.append((i, j) if i < j else (j, i))
        active.append((b[5] + _SLACK, j, b))
    pairs.sort()
    return pairs


def _check_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")


# ---------------------------------------------------------------------------
# scene checks


def _display(pid: str) -> str:
    # "coffee_table_3" reads as "coffee table" in diagnostics
    stem = pid.rsplit("_", 1)[0] if pid.rsplit("_", 1)[-1].isdigit() else pid
    return stem.replace("_", " ")


def _ancestors(p: Placement, by_id: dict[str, Placement]) -> set[str]:
    seen: set[str] = set()
    cur = p.parent
    while cur is not None and cur not in seen:
        seen.add(cur)
        cur = by_id[cur].parent if cur in by_id else None
    return seen


def check_collisions(s: CompiledScene, eps: float = EPS_DEFAULT) -> list[CollisionDiagnostic]:
    """All unordered pairs except ancestor chains and wall joints, in (i, j)
    order over all_placements().

    A sweep-and-prune pass over ground-plane AABBs picks the candidate pairs;
    the separating-axis test decides each.  Wall boxes only ever overlap each
    other at shared corner cells, which are legal joints, so
    structural-structural pairs are skipped wholesale.
    """
    _check_tolerance("eps", eps)
    everything = s.all_placements()
    by_id = {p.id: p for p in everything}
    ancestors = {p.id: _ancestors(p, by_id) for p in everything}
    prints = [footprint(p.box) for p in everything]
    out: list[CollisionDiagnostic] = []
    for i, j in _candidate_pairs(prints):
        a, b = everything[i], everything[j]
        if a.category is Category.STRUCTURAL and b.category is Category.STRUCTURAL:
            continue
        if b.id in ancestors[a.id] or a.id in ancestors[b.id]:
            continue
        depth = footprint_intersect(prints[i], prints[j], eps)
        if depth is None:
            continue
        first, second = (a, b) if a.id < b.id else (b, a)
        cell = (second.source.row, second.source.col)
        name_a = _display(first.id)
        message = (
            f"{name_a[:1].upper()}{name_a[1:]} overlaps with {_display(second.id)} "
            f"at position ({cell[0]},{cell[1]})"
        )
        out.append(
            CollisionDiagnostic(
                a_id=first.id,
                b_id=second.id,
                a_cell=(first.source.row, first.source.col),
                b_cell=cell,
                penetration_depth_m=depth,
                message=message,
            )
        )
    return out


def check_support(s: CompiledScene, tol: float = TOL_DEFAULT) -> list[SupportDiagnostic]:
    """Floor furniture must rest at z=0; top-face children must rest on the
    parent's top plane.  The gap is signed: positive floats, negative sinks."""
    by_id = {p.id: p for p in s.all_placements()}
    out: list[SupportDiagnostic] = []
    for p in s.placements:
        if p.parent is None:
            if p.category is Category.CEILING_MOUNTED or p.source.face is not None:
                continue  # ceiling-plane children hang on purpose
            gap = p.box.bottom_z
            if abs(gap) > tol:
                out.append(
                    SupportDiagnostic(
                        id=p.id,
                        parent=None,
                        gap_m=gap,
                        message=f"{p.id} bottom is {gap:+.6f} m from the floor",
                    )
                )
            continue
        if p.source.face is not Face.TOP or p.parent not in by_id:
            continue
        gap = p.box.bottom_z - by_id[p.parent].box.top_z
        if abs(gap) > tol:
            out.append(
                SupportDiagnostic(
                    id=p.id,
                    parent=p.parent,
                    gap_m=gap,
                    message=f"{p.id} bottom is {gap:+.6f} m from the top of {p.parent}",
                )
            )
    return out


def floor_rect(
    grid: GridSpec,
    floor_extent_m: tuple[float, float] | None = None,
    building: CompiledScene | None = None,
) -> tuple[float, float, float, float]:
    """(lo_x, hi_x, lo_y, hi_y) a footprint corner may reach without leaving
    the floor, widened by _SLACK: the wall envelope when a building scene with
    walls is given, else ``floor_extent_m`` from the outer corner of cell
    (0, 0), else the grid."""
    g = grid.cell_size_m
    lo_x = lo_y = -g / 2.0
    if building is not None and building.structural:
        xs: list[float] = []
        ys: list[float] = []
        for w in building.structural:
            for cx, cy in w.box.footprint_corners():
                xs.append(cx)
                ys.append(cy)
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
    elif floor_extent_m is not None:
        hi_x = lo_x + floor_extent_m[0]
        hi_y = lo_y + floor_extent_m[1]
    else:
        hi_x = (grid.rows - 0.5) * g
        hi_y = (grid.cols - 0.5) * g
    return (lo_x - _SLACK, hi_x + _SLACK, lo_y - _SLACK, hi_y + _SLACK)


def footprint_on_floor(fp: Footprint, rect: tuple[float, float, float, float]) -> bool:
    """True when every corner of the footprint lies inside floor_rect()."""
    return rect[0] <= fp[4] and fp[5] <= rect[1] and rect[2] <= fp[6] and fp[7] <= rect[3]


def check_bounds(
    s: CompiledScene,
    floor_extent_m: tuple[float, float] | None = None,
    building: CompiledScene | None = None,
) -> list[BoundsDiagnostic]:
    """Report non-structural placements whose footprint leaves floor_rect().
    The floor is ``floor_extent_m``, else the program's ``floor=``, else the
    grid; a building scene's wall envelope replaces it."""
    if floor_extent_m is None:
        floor_extent_m = getattr(s.program, "floor_extent_m", None)
    lo_x, hi_x, lo_y, hi_y = floor_rect(s.grid, floor_extent_m, building)
    out: list[BoundsDiagnostic] = []
    for p in s.placements:
        for cx, cy in p.box.footprint_corners():
            if lo_x <= cx <= hi_x and lo_y <= cy <= hi_y:
                continue
            out.append(
                BoundsDiagnostic(
                    id=p.id,
                    corner=(cx, cy),
                    message=f"{p.id} extends outside the floor at ({cx:.3f},{cy:.3f})",
                )
            )
            break
    return out


def collision_rate(s: CompiledScene, eps: float = EPS_DEFAULT) -> float:
    """Percentage of non-structural placements involved in at least one
    collision, rounded to one decimal.  Empty scenes rate 0."""
    return _collision_rate(s, check_collisions(s, eps))


def _collision_rate(s: CompiledScene, collisions: Iterable[CollisionDiagnostic]) -> float:
    if not s.placements:
        return 0.0
    object_ids = {p.id for p in s.placements}
    involved: set[str] = set()
    for c in collisions:
        involved.update({c.a_id, c.b_id} & object_ids)
    return round(100.0 * len(involved) / len(s.placements), 1)


def validate(s: CompiledScene, config: ValidatorConfig | None = None) -> ValidationReport:
    """Run every check and aggregate; the scene is read, never changed."""
    config = config or ValidatorConfig()
    collisions = tuple(check_collisions(s, config.eps))
    support = tuple(check_support(s, config.tol))
    bounds = tuple(
        check_bounds(s, config.floor_extent_m, building=s if s.structural else None)
    )
    return ValidationReport(
        collisions=collisions,
        support_failures=support,
        bounds_violations=bounds,
        warnings=tuple(s.warnings),
        cr_obj_percent=_collision_rate(s, collisions),
        passed=not (collisions or support or bounds),
    )


def report_text(r: ValidationReport) -> str:
    lines = []
    if r.passed:
        lines.append("passed: no collisions, support, or bounds violations")
    else:
        lines.append("failed")
    for c in r.collisions:
        lines.append(f"collision: {c.message}")
    for d in r.support_failures:
        lines.append(f"support: {d.message}")
    for d in r.bounds_violations:
        lines.append(f"bounds: {d.message}")
    for w in r.warnings:
        lines.append(f"warning: {w}")
    lines.append(f"CR_obj: {r.cr_obj_percent:.1f}%")
    return "\n".join(lines) + "\n"
