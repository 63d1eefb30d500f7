import math

import pytest
from hypothesis import given, strategies as st

from spatialgrammar.errors import ZeroCellSize
from spatialgrammar.geometry import (
    GridSpec,
    OrientedBox,
    Vec3,
    box_corners,
    grid_dimensions,
    normalize_yaw,
    normalize_yaw_rad,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestVec3:
    def test_arithmetic(self):
        a = Vec3(1.0, 2.0, 3.0)
        b = Vec3(0.5, -1.0, 2.0)
        assert (a + b).as_tuple() == (1.5, 1.0, 5.0)
        assert (a - b).as_tuple() == (0.5, 3.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Vec3(0.0, float("inf"), 0.0)

    def test_rotation_quarter_turn(self):
        v = Vec3(1.0, 0.0, 5.0).rotated_z(math.pi / 2.0)
        assert abs(v.x) < 1e-15
        assert abs(v.y - 1.0) < 1e-15
        assert v.z == 5.0

    @given(finite, finite, st.floats(min_value=-10.0, max_value=10.0))
    def test_rotation_preserves_length(self, x, y, yaw):
        v = Vec3(x, y, 0.0)
        r = v.rotated_z(yaw)
        assert math.hypot(r.x, r.y) == pytest.approx(math.hypot(x, y), abs=1e-6, rel=1e-9)


class TestYawNormalization:
    def test_degrees(self):
        assert normalize_yaw(0) == 0.0
        assert normalize_yaw(90) == pytest.approx(math.pi / 2.0)
        assert normalize_yaw(-90) == pytest.approx(3.0 * math.pi / 2.0)
        assert normalize_yaw(360) == 0.0
        assert normalize_yaw(450) == pytest.approx(math.pi / 2.0)

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_radians_in_range(self, yaw):
        r = normalize_yaw_rad(yaw)
        assert 0.0 <= r < 2.0 * math.pi

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_radians_same_direction(self, yaw):
        r = normalize_yaw_rad(yaw)
        assert math.cos(r) == pytest.approx(math.cos(yaw), abs=1e-9)
        assert math.sin(r) == pytest.approx(math.sin(yaw), abs=1e-9)


class TestOrientedBox:
    def test_z_extents(self):
        box = OrientedBox(center=Vec3(0, 0, 1.0), size=Vec3(2, 1, 0.5), yaw=0.3)
        assert box.bottom_z == pytest.approx(0.75)
        assert box.top_z == pytest.approx(1.25)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            OrientedBox(center=Vec3(0, 0, 0), size=Vec3(0.0, 1, 1), yaw=0)

    def test_footprint_corners_frozen_case(self):
        # box 2x1 at (1,2), quarter turn: corners worked out by hand
        box = OrientedBox(center=Vec3(1, 2, 0.5), size=Vec3(2, 1, 1), yaw=math.pi / 2.0)
        want = [(1.5, 1.0), (1.5, 3.0), (0.5, 3.0), (0.5, 1.0)]
        for (gx, gy), (wx, wy) in zip(box.footprint_corners(), want):
            assert gx == pytest.approx(wx, abs=1e-12)
            assert gy == pytest.approx(wy, abs=1e-12)

    def test_facing_unit_vector(self):
        box = OrientedBox(center=Vec3(0, 0, 0.5), size=Vec3(1, 1, 1), yaw=math.pi)
        fx, fy = box.facing()
        assert fx == pytest.approx(-1.0)
        assert fy == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=7.0))
    def test_yaw_never_moves_z(self, yaw):
        flat = OrientedBox(center=Vec3(0, 0, 1), size=Vec3(3, 2, 2), yaw=0.0)
        spun = OrientedBox(center=Vec3(0, 0, 1), size=Vec3(3, 2, 2), yaw=yaw)
        assert spun.bottom_z == flat.bottom_z
        assert spun.top_z == flat.top_z

    def test_corner_order_contract(self):
        box = OrientedBox(center=Vec3(0, 0, 0.5), size=Vec3(2, 1, 1), yaw=0.0)
        pts = [v.as_tuple() for v in box_corners(box)]
        assert pts[0] == (-1.0, -0.5, 0.0)
        assert pts[1] == (1.0, -0.5, 0.0)
        assert pts[2] == (1.0, 0.5, 0.0)
        assert pts[3] == (-1.0, 0.5, 0.0)
        assert all(p[2] == 1.0 for p in pts[4:])
        assert [p[:2] for p in pts[4:]] == [p[:2] for p in pts[:4]]


class TestGridSpec:
    def test_cell_center(self):
        g = GridSpec(cell_size_m=0.5, rows=4, cols=6)
        assert g.cell_center(0, 0) == (0.0, 0.0)
        assert g.cell_center(2, 5) == (1.0, 2.5)

    def test_zero_cell_size(self):
        with pytest.raises(ZeroCellSize):
            GridSpec(cell_size_m=0.0, rows=1, cols=1)


class TestGridDimensions:
    # 6 m x 6 m floor at the five stock resolutions
    @pytest.mark.parametrize(
        "cell,rows,cols",
        [(0.5, 12, 12), (0.75, 8, 8), (1.0, 6, 6), (1.5, 4, 4), (2.0, 3, 3)],
    )
    def test_six_meter_floor(self, cell, rows, cols):
        assert grid_dimensions((6.0, 6.0), cell) == (rows, cols)

    def test_non_square(self):
        assert grid_dimensions((6.0, 4.5), 1.5) == (4, 3)

    def test_floors_partial_cells(self):
        assert grid_dimensions((5.9, 6.1), 1.0) == (5, 6)
