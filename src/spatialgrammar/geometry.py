"""Geometric primitives shared across the toolchain.

World frame: x and y span the ground plane, z points up.  Grid cell (i, j)
anchors at world (i * g, j * g); the cell (0, 0) center sits at the world
origin.  All rotations are about z only.  An object's facing direction at
yaw 0 is +x, so yaw equals the heading angle of its front face normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroCellSize

TWO_PI = 2.0 * math.pi

# Floor-of-quotient guard: keeps 6.0/0.1-style binary noise from dropping a row.
_DIM_EPS = 1e-9


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector with finite components."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Vec3.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def rotated_z(self, yaw: float) -> "Vec3":
        """Rotate about the world z axis by yaw radians."""
        c, s = math.cos(yaw), math.sin(yaw)
        return Vec3(self.x * c - self.y * s, self.x * s + self.y * c, self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def normalize_yaw(deg: int) -> float:
    """Map an integer yaw in degrees (any sign, any magnitude) to radians in [0, 2pi)."""
    return math.radians(deg % 360)


def normalize_yaw_rad(rad: float) -> float:
    """Wrap a yaw in radians into [0, 2pi).  Values already in range pass through exactly."""
    r = math.fmod(rad, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod can round up to the period itself
        r = 0.0
    return r


@dataclass(frozen=True)
class OrientedBox:
    """Axis box rotated about z: size.x/size.y are the yaw-0 ground extents, size.z the height."""

    center: Vec3
    size: Vec3
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if self.size.x <= 0 or self.size.y <= 0 or self.size.z <= 0:
            raise ValueError(f"box size must be strictly positive, got {self.size}")
        object.__setattr__(self, "yaw", normalize_yaw_rad(float(self.yaw)))

    @property
    def bottom_z(self) -> float:
        return self.center.z - self.size.z / 2.0

    @property
    def top_z(self) -> float:
        return self.center.z + self.size.z / 2.0

    def facing(self) -> tuple[float, float]:
        """Unit ground-plane direction of the front (+x) face."""
        return (math.cos(self.yaw), math.sin(self.yaw))

    def footprint_corners(self) -> tuple[tuple[float, float], ...]:
        """The 4 ground-plane corners, counter-clockwise from (-x, -y)."""
        hx, hy = self.size.x / 2.0, self.size.y / 2.0
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        out = []
        for lx, ly in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)):
            out.append((self.center.x + lx * c - ly * s, self.center.y + lx * s + ly * c))
        return tuple(out)


def box_corners(box: OrientedBox) -> tuple[Vec3, ...]:
    """All 8 corners: bottom face counter-clockwise from (-x, -y), then the top face
    in the same order.  The order is part of the export contract."""
    hz = box.size.z / 2.0
    ground = box.footprint_corners()
    return tuple(Vec3(x, y, box.center.z + lz) for lz in (-hz, hz) for x, y in ground)


@dataclass(frozen=True)
class GridSpec:
    """Uniform square-cell grid: rows step along world x, cols along world y."""

    cell_size_m: float
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cell_size_m) and self.cell_size_m > 0):
            raise ZeroCellSize(f"cell size must be > 0, got {self.cell_size_m!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (i * self.cell_size_m, j * self.cell_size_m)


def grid_dimensions(floor_extent_m: tuple[float, float], cell_size_m: float) -> tuple[int, int]:
    """Whole cell counts (rows, cols) that fit a floor rectangle at a given cell size.

    rows come from the x extent, cols from the y extent; partial cells are dropped.
    """
    if not (math.isfinite(cell_size_m) and cell_size_m > 0):
        raise ZeroCellSize(f"cell size must be > 0, got {cell_size_m!r}")
    fx, fy = floor_extent_m
    if fx < 0 or fy < 0:
        raise ValueError(f"floor extent must be non-negative, got {floor_extent_m!r}")
    rows = int(math.floor(fx / cell_size_m + _DIM_EPS))
    cols = int(math.floor(fy / cell_size_m + _DIM_EPS))
    return (rows, cols)
