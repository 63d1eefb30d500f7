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
from .geometry import OrientedBox
from .llmsli import Face
from .vocab import Category

EPS_DEFAULT = 1e-6
TOL_DEFAULT = 1e-6


@dataclass(frozen=True)
class ValidatorConfig:
    eps: float = EPS_DEFAULT
    tol: float = TOL_DEFAULT
    floor_extent_m: tuple[float, float] | None = None


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

    @classmethod
    def from_dict(cls, doc: dict) -> "ValidationReport":
        return cls(
            collisions=tuple(
                CollisionDiagnostic(
                    a_id=c["a_id"],
                    b_id=c["b_id"],
                    a_cell=tuple(c["a_cell"]),
                    b_cell=tuple(c["b_cell"]),
                    penetration_depth_m=c["penetration_depth_m"],
                    message=c["message"],
                )
                for c in doc["collisions"]
            ),
            support_failures=tuple(
                SupportDiagnostic(
                    id=d["id"], parent=d["parent"], gap_m=d["gap_m"], message=d["message"]
                )
                for d in doc["support_failures"]
            ),
            bounds_violations=tuple(
                BoundsDiagnostic(id=d["id"], corner=tuple(d["corner"]), message=d["message"])
                for d in doc["bounds_violations"]
            ),
            warnings=tuple(doc["warnings"]),
            cr_obj_percent=doc["cr_obj_percent"],
            passed=doc["passed"],
        )


# ---------------------------------------------------------------------------
# intersection


def _axis_overlap(a: OrientedBox, b: OrientedBox, ax: float, ay: float) -> float:
    """Signed overlap of the two footprints projected on a unit in-plane axis."""
    a_lo = a_hi = None
    for cx, cy in a.footprint_corners():
        t = cx * ax + cy * ay
        a_lo = t if a_lo is None or t < a_lo else a_lo
        a_hi = t if a_hi is None or t > a_hi else a_hi
    b_lo = b_hi = None
    for cx, cy in b.footprint_corners():
        t = cx * ax + cy * ay
        b_lo = t if b_lo is None or t < b_lo else b_lo
        b_hi = t if b_hi is None or t > b_hi else b_hi
    return min(a_hi, b_hi) - max(a_lo, b_lo)


def obb_intersect(a: OrientedBox, b: OrientedBox, eps: float = EPS_DEFAULT) -> float | None:
    """Penetration depth when the boxes overlap by more than eps on every
    candidate axis, else None.  Exact for yaw-only boxes."""
    depth = min(a.top_z, b.top_z) - max(a.bottom_z, b.bottom_z)
    if depth <= eps:
        return None
    for yaw in (a.yaw, b.yaw):
        c, s = math.cos(yaw), math.sin(yaw)
        for ax, ay in ((c, s), (-s, c)):
            overlap = _axis_overlap(a, b, ax, ay)
            if overlap <= eps:
                return None
            depth = min(depth, overlap)
    return depth


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
    """All unordered pairs except ancestor chains and wall joints.

    Wall boxes only ever overlap each other at shared corner cells, which are
    legal joints, so structural-structural pairs are skipped wholesale.
    """
    everything = s.all_placements()
    by_id = {p.id: p for p in everything}
    ancestors = {p.id: _ancestors(p, by_id) for p in everything}
    out: list[CollisionDiagnostic] = []
    for i, a in enumerate(everything):
        for b in everything[i + 1 :]:
            if a.category is Category.STRUCTURAL and b.category is Category.STRUCTURAL:
                continue
            if b.id in ancestors[a.id] or a.id in ancestors[b.id]:
                continue
            depth = obb_intersect(a.box, b.box, eps)
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


def check_bounds(
    s: CompiledScene,
    floor_extent_m: tuple[float, float] | None = None,
    building: CompiledScene | None = None,
) -> list[BoundsDiagnostic]:
    """Report non-structural placements whose footprint leaves the floor
    rectangle, or the wall envelope when a building scene is given."""
    g = s.grid.cell_size_m
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
        hi_x = (s.grid.rows - 0.5) * g
        hi_y = (s.grid.cols - 0.5) * g
    slack = 1e-9
    out: list[BoundsDiagnostic] = []
    for p in s.placements:
        for cx, cy in p.box.footprint_corners():
            if lo_x - slack <= cx <= hi_x + slack and lo_y - slack <= cy <= hi_y + slack:
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
        check_bounds(
            s,
            floor_extent_m=config.floor_extent_m,
            building=s if s.structural else None,
        )
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
